package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gis/internal/types"
)

// The benchmark generates every table from its own seeded generator, so
// the expected answers can be computed in plain Go from the same rows
// the stores were loaded with. Nothing here depends on the fixed seeds
// inside the repository's workload package.

var (
	regions    = []string{"north", "south", "east", "west"}
	segments   = []string{"retail", "wholesale", "online", "partner"}
	countries  = []string{"de", "fr", "us", "jp", "br", "in", "za", "ca", "au", "mx"}
	branches   = []string{"main", "harbor", "airport", "market", "station"}
	statuses   = []string{"open", "pending", "solved", "closed"}
	carriers   = []string{"dhl", "ups", "fedex", "post", "local"}
	categories = []string{"tools", "garden", "toys", "books", "audio", "kitchen"}
)

// account is one row of the partitioned accounts table.
type account struct {
	id      int64
	owner   string
	branch  string
	balance float64
}

func accountSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "owner", Type: types.KindString},
		types.Column{Name: "branch", Type: types.KindString},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
}

// genAccounts returns n accounts with integer-valued balances, so that
// every sum the benchmark checks is exact in float64.
func genAccounts(n int, seed int64) []account {
	rng := rand.New(rand.NewSource(seed))
	out := make([]account, n)
	for i := range out {
		out[i] = account{
			id:      int64(i),
			owner:   "acct-" + strconv.Itoa(i),
			branch:  branches[rng.Intn(len(branches))],
			balance: float64(100 + rng.Intn(9900)),
		}
	}
	return out
}

func (a account) row() types.Row {
	return types.Row{types.NewInt(a.id), types.NewString(a.owner), types.NewString(a.branch), types.NewFloat(a.balance)}
}

// order is one row of the analytic fact table.
type order struct {
	oid, custID, pid int64
	amount           float64
	region           string
	day              int64
}

func orderSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "day", Type: types.KindInt},
	)
}

func (o order) row() types.Row {
	return types.Row{types.NewInt(o.oid), types.NewInt(o.custID), types.NewInt(o.pid),
		types.NewFloat(o.amount), types.NewString(o.region), types.NewInt(o.day)}
}

type customer struct {
	id               int64
	name             string
	segment, country string
}

func customerSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString},
		types.Column{Name: "country", Type: types.KindString},
	)
}

func (c customer) row() types.Row {
	return types.Row{types.NewInt(c.id), types.NewString(c.name), types.NewString(c.segment), types.NewString(c.country)}
}

type product struct {
	pid      int64
	name     string
	price    float64
	category string
}

func productSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "price", Type: types.KindFloat},
		types.Column{Name: "category", Type: types.KindString},
	)
}

func (p product) row() types.Row {
	return types.Row{types.NewInt(p.pid), types.NewString(p.name), types.NewFloat(p.price), types.NewString(p.category)}
}

// ticket is a support-ticket document; custID lives at the nested path
// "cust.id" in the stored JSON.
type ticket struct {
	tid, custID int64
	status      string
	priority    int64
}

func ticketSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "tid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "status", Type: types.KindString},
		types.Column{Name: "priority", Type: types.KindInt},
	)
}

type shipment struct {
	sid     int64
	carrier string
	cost    float64
	region  string
}

func shipmentSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "sid", Type: types.KindInt},
		types.Column{Name: "carrier", Type: types.KindString},
		types.Column{Name: "cost", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
}

// analyticData is the generated content of the analytic federation.
type analyticData struct {
	orders    []order
	customers []customer
	products  []product
	tickets   []ticket
	shipments []shipment
}

// Sizes of the analytic federation.
const (
	nOrders    = 200_000
	nCustomers = 2_000
	nProducts  = 10_000
	nTickets   = 20_000
	nShipments = 20_000
	nDays      = 365
)

func genAnalytic(seed int64) *analyticData {
	rng := rand.New(rand.NewSource(seed))
	d := &analyticData{}
	// Countries are dealt round-robin so every country filter selects
	// the same number of customers.
	d.customers = make([]customer, nCustomers)
	for i := range d.customers {
		d.customers[i] = customer{
			id:      int64(i),
			name:    fmt.Sprintf("cust-%05d", i),
			segment: segments[rng.Intn(len(segments))],
			country: countries[i%len(countries)],
		}
	}
	// Amounts are a shuffled ladder of distinct values, so ORDER BY
	// amount has no ties and a top-k answer is unique.
	perm := rng.Perm(nOrders)
	d.orders = make([]order, nOrders)
	for i := range d.orders {
		d.orders[i] = order{
			oid:    int64(i),
			custID: int64(rng.Intn(nCustomers)),
			pid:    int64(rng.Intn(nProducts)),
			amount: float64(perm[i]+1) * 0.05,
			region: regions[rng.Intn(len(regions))],
			day:    int64(rng.Intn(nDays)),
		}
	}
	d.products = make([]product, nProducts)
	for i := range d.products {
		d.products[i] = product{
			pid:      int64(i),
			name:     "prod-" + strconv.Itoa(i),
			price:    float64(100+rng.Intn(99900)) / 100,
			category: categories[rng.Intn(len(categories))],
		}
	}
	d.tickets = make([]ticket, nTickets)
	for i := range d.tickets {
		d.tickets[i] = ticket{
			tid:      int64(i),
			custID:   int64(rng.Intn(nCustomers)),
			status:   statuses[rng.Intn(len(statuses))],
			priority: int64(1 + rng.Intn(5)),
		}
	}
	d.shipments = make([]shipment, nShipments)
	for i := range d.shipments {
		d.shipments[i] = shipment{
			sid:     int64(i),
			carrier: carriers[rng.Intn(len(carriers))],
			cost:    float64(50+rng.Intn(20000)) / 100,
			region:  regions[rng.Intn(len(regions))],
		}
	}
	return d
}

// shipmentsCSV renders the shipments as the flat file the filestore
// serves; floats use the shortest round-tripping form.
func shipmentsCSV(rows []shipment) string {
	var b strings.Builder
	for _, s := range rows {
		b.WriteString(strconv.FormatInt(s.sid, 10))
		b.WriteByte(',')
		b.WriteString(s.carrier)
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(s.cost, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(s.region)
		b.WriteByte('\n')
	}
	return b.String()
}
