package main

import (
	"math"
	"testing"

	"gis/internal/types"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianGapIsSymmetric(t *testing.T) {
	for _, c := range []struct{ m1, m2, want float64 }{
		{100, 150, 0.5},
		{100, 50, 0.5},
		{100, 100, 0},
		{0, 0, 0},
		{0, 1, math.Inf(1)},
	} {
		if got := medianGap(c.m1, c.m2); got != c.want {
			t.Errorf("medianGap(%v, %v) = %v, want %v", c.m1, c.m2, got, c.want)
		}
	}
}

func TestCompareMultiset(t *testing.T) {
	row := func(k string, n int64, f float64) types.Row {
		return types.Row{types.NewString(k), types.NewInt(n), types.NewFloat(f)}
	}
	got := []types.Row{row("b", 2, 0.3), row("a", 1, 0.1+0.2)}
	if err := compareMultiset(got, [][]cell{{"a", int64(1), 0.3}, {"b", int64(2), 0.3}}); err != nil {
		t.Errorf("equal multisets within tolerance: %v", err)
	}
	if err := compareMultiset(got, [][]cell{{"a", int64(1), 0.3}, {"b", int64(3), 0.3}}); err == nil {
		t.Error("a differing count was accepted")
	}
	if err := compareMultiset(got, [][]cell{{"a", int64(1), 0.3}, {"b", int64(2), 0.31}}); err == nil {
		t.Error("a float outside the tolerance was accepted")
	}
	if err := compareMultiset(got[:1], [][]cell{{"a", int64(1), 0.3}, {"b", int64(2), 0.3}}); err == nil {
		t.Error("a missing row was accepted")
	}
}

func TestFingerprintMatchesPlainGo(t *testing.T) {
	orders := []order{{oid: 1, custID: 7, amount: 2.5}, {oid: 2, custID: 7, amount: 4}}
	want := fpOf(len(orders), func(i int) (uint64, bool) {
		o := orders[i]
		return hashFloat(hashInt(hashInt(fnvOffset, o.oid), o.custID), o.amount), true
	})
	rows := []types.Row{
		{types.NewInt(2), types.NewInt(7), types.NewFloat(4)},
		{types.NewInt(1), types.NewInt(7), types.NewFloat(2.5)},
	}
	if got := rowsFingerprint(rows); got != *want {
		t.Errorf("fingerprint of reordered rows = %+v, want %+v", got, *want)
	}
	rows[0][2] = types.NewFloat(4.000001)
	if got := rowsFingerprint(rows); got == *want {
		t.Error("a changed value kept the fingerprint")
	}
	if got := rowsFingerprint(append(rows, rows[0])); got == *want {
		t.Error("a duplicated row kept the fingerprint")
	}
}

func TestAcctModelReadWindow(t *testing.T) {
	m := newAcctModel(genAccounts(4, 1))
	read := func(id int64, bal float64) (*op, []types.Row) {
		o := &op{lo: id, hi: id + 1}
		m.snapshot(o)
		return o, []types.Row{{types.NewInt(id), types.NewString(m.accts[id].owner), types.NewFloat(bal)}}
	}
	b := m.accts[2].balance
	o, rows := read(2, b)
	m.beginWrite(2, 5) // sent while the read is in flight: either value is legal
	if err := m.checkRead(o, rows); err != nil {
		t.Errorf("old balance during a pending write: %v", err)
	}
	if err := m.checkRead(o, []types.Row{{types.NewInt(2), types.NewString(m.accts[2].owner), types.NewFloat(b + 5)}}); err != nil {
		t.Errorf("new balance during a pending write: %v", err)
	}
	m.ackWrite(2, 5)
	o, rows = read(2, b) // the write was acknowledged before this read
	if err := m.checkRead(o, rows); err == nil {
		t.Error("a read sent after the acknowledgement returned the old balance")
	}
}
