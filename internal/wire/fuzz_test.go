package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// codecCase is one decoder FuzzDecoder drives, paired with its encoder.
type codecCase struct {
	name   string
	decode func(*Decoder) (any, error)
	encode func(*Encoder, any) error
}

var codecCases = []codecCase{
	{"Value",
		func(d *Decoder) (any, error) { return d.Value() },
		func(e *Encoder, v any) error { e.Value(v.(types.Value)); return nil }},
	{"Row",
		func(d *Decoder) (any, error) { return d.Row() },
		func(e *Encoder, v any) error { e.Row(v.(types.Row)); return nil }},
	{"Expr",
		func(d *Decoder) (any, error) { return d.Expr() },
		func(e *Encoder, v any) error { x, _ := v.(expr.Expr); return e.Expr(x) }},
	{"Query",
		func(d *Decoder) (any, error) { return d.Query() },
		func(e *Encoder, v any) error { return e.Query(v.(*source.Query)) }},
	{"Span",
		func(d *Decoder) (any, error) { return d.Span() },
		func(e *Encoder, v any) error { e.Span(v.(*obs.SpanData)); return nil }},
	{"stats",
		func(d *Decoder) (any, error) { return decodeStats(d) },
		func(e *Encoder, v any) error { encodeStats(e, v.(*stats.TableStats)); return nil }},
	{"hello",
		func(d *Decoder) (any, error) { return d.hello() },
		func(e *Encoder, v any) error { e.hello(v.(string)); return nil }},
	{"helloReply",
		func(d *Decoder) (any, error) {
			w, m, err := d.helloReply()
			return [2]int{w, m}, err
		},
		func(e *Encoder, v any) error { r := v.([2]int); e.helloReply(r[0], r[1]); return nil }},
	{"execute",
		func(d *Decoder) (any, error) { return d.execute() },
		func(e *Encoder, v any) error {
			r := v.(executeReq)
			return e.execute(r.q, r.traceID, r.parentSpan, r.budget)
		}},
}

// fuzzSeeds encodes the inputs of the codec round-trip tests, one
// message per seed.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	add := func(fill func(*Encoder) error) {
		var e Encoder
		if err := fill(&e); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, e.Bytes())
	}
	x := expr.NewBoundColRef(0, types.KindInt, "x")
	values := []types.Value{
		types.Null, types.NewBool(true), types.NewInt(-12345678901), types.NewFloat(3.14159),
		types.NewString("héllo wörld"), types.NewBytes([]byte{0, 1, 2, 255}),
		types.NewTime(time.Date(2021, 6, 1, 12, 0, 0, 123456789, time.UTC)),
	}
	for _, v := range values {
		add(func(e *Encoder) error { e.Value(v); return nil })
	}
	add(func(e *Encoder) error { e.Row(types.Row(values)); return nil })
	exprs := []expr.Expr{
		expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, x, expr.NewConst(types.NewInt(5))),
			expr.NewBinary(expr.OpLike, expr.NewBoundColRef(1, types.KindString, "s"), expr.NewConst(types.NewString("a%")))),
		expr.NewUnary(expr.OpNot, expr.NewConst(types.NewBool(false))),
		&expr.IsNull{E: x, Negate: true},
		&expr.InList{E: x, List: []expr.Expr{expr.NewConst(types.NewInt(1)), expr.NewConst(types.NewInt(2))}, Negate: true},
		&expr.Case{Operand: x,
			Whens: []expr.When{{Cond: expr.NewConst(types.NewInt(1)), Then: expr.NewConst(types.NewString("one"))}},
			Else:  expr.NewConst(types.NewString("other"))},
		&expr.Cast{E: x, To: types.KindString},
		expr.NewCall("ABS", x),
	}
	for _, x := range exprs {
		add(func(e *Encoder) error { return e.Expr(x) })
	}
	q := &source.Query{
		Table: "t", Columns: []int{2, 0}, Filter: exprs[0], GroupBy: []int{1},
		Aggs:    []source.AggSpec{{Kind: expr.AggCount, Star: true}, {Kind: expr.AggSum, Col: 2, Distinct: true}},
		OrderBy: []source.OrderSpec{{Col: 0, Desc: true}}, Limit: 10,
	}
	add(func(e *Encoder) error { return e.Query(q) })
	add(func(e *Encoder) error { return e.execute(q, "", 0, 0) })
	add(func(e *Encoder) error { return e.execute(source.NewScan("t"), "deadbeef", 7, 250*time.Millisecond) })
	add(func(e *Encoder) error {
		e.Span(&obs.SpanData{Kind: "remote", Name: "ny", Start: time.UnixMicro(1234567890123456), DurationUS: 4200,
			Attrs:    []obs.Attr{{Key: "trace_id", Value: "deadbeef"}},
			Children: []*obs.SpanData{{Kind: "parse", Name: "rebind", DurationUS: 10}}})
		return nil
	})
	add(func(e *Encoder) error {
		encodeStats(e, &stats.TableStats{RowCount: 100, Columns: []stats.ColumnStats{
			{NDV: 5, Min: types.NewInt(0), Max: types.NewInt(99),
				Hist: &stats.Histogram{Bounds: []types.Value{types.NewInt(49), types.NewInt(99)}, Counts: []int64{50, 50}, Total: 100}},
			{NDV: 1, NullCount: 3},
		}})
		return nil
	})
	add(func(e *Encoder) error { e.hello("acme"); return nil })
	add(func(e *Encoder) error { e.helloReply(defaultCreditWindow, maxFrame); return nil })
	return seeds
}

// FuzzDecoder feeds arbitrary payloads to every decoder. None may
// panic, and whatever decodes must re-encode to bytes that decode back
// to the same value, compared through its encoding.
func FuzzDecoder(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecCases {
			v, err := c.decode(NewDecoder(b))
			if err != nil {
				continue
			}
			var first Encoder
			if err := c.encode(&first, v); err != nil {
				t.Fatalf("%s: re-encoding a decoded value: %v", c.name, err)
			}
			d := NewDecoder(first.Bytes())
			v2, err := c.decode(d)
			if err != nil {
				t.Fatalf("%s: re-encoded value does not decode: %v", c.name, err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("%s: %d bytes left after decoding a re-encoded value", c.name, d.Remaining())
			}
			var second Encoder
			if err := c.encode(&second, v2); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: round trip changed the value:\n%x\n%x", c.name, first.Bytes(), second.Bytes())
			}
		}
	})
}

// readWriter joins a byte stream to read and a sink to write.
type readWriter struct {
	io.Reader
	io.Writer
}

// FuzzReadFrame reads frames from an arbitrary byte stream under an
// arbitrary inbound bound. readFrame must never panic or return a
// payload over the bound, and every frame it returns must re-encode to
// exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		var out bytes.Buffer
		fc := newFrameConn(readWriter{Writer: &out}, SimLink{}, SimLink{})
		if err := fc.writeFrame(ctx, msgRows, s); err != nil {
			f.Fatal(err)
		}
		if err := fc.writeFrame(ctx, msgEnd, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(len(s)), out.Bytes())
		f.Add(uint16(len(s)/2), out.Bytes())
	}
	f.Fuzz(func(t *testing.T, limit uint16, stream []byte) {
		in := bytes.NewReader(stream)
		var out bytes.Buffer
		fc := newFrameConn(readWriter{in, &out}, SimLink{}, SimLink{})
		fc.limit = int(limit)
		for {
			consumed := len(stream) - in.Len()
			tag, payload, err := fc.readFrame(ctx)
			if err != nil {
				if in.Len() == 0 || errors.Is(err, ErrFrameTooLarge) {
					return
				}
				t.Fatalf("readFrame failed with %d bytes unread: %v", in.Len(), err)
			}
			if len(payload) > int(limit) {
				t.Fatalf("payload of %d bytes over the %d-byte bound", len(payload), limit)
			}
			out.Reset()
			if err := fc.writeFrame(ctx, tag, payload); err != nil {
				t.Fatal(err)
			}
			if raw := stream[consumed : len(stream)-in.Len()]; !bytes.Equal(out.Bytes(), raw) {
				t.Fatalf("frame re-encodes to %x, consumed %x", out.Bytes(), raw)
			}
		}
	})
}
