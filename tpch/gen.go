package tpch

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"cloudiq"
)

// Base cardinalities at scale factor 1.
const (
	supplierBase = 10_000
	partBase     = 200_000
	customerBase = 150_000
	ordersBase   = 1_500_000
)

var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []struct {
		name   string
		region int
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	// p_name draws five of these; "green" and "forest" matter to Q9/Q20.
	nameWords = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
		"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
		"chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark",
		"deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted",
		"gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot",
		"indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light",
	}

	fillerWords = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"packages", "accounts", "theodolites", "instructions", "foxes", "pinto",
		"beans", "ideas", "requests", "platelets", "asymptotes", "dependencies",
		"somas", "waters", "sleep", "nag", "haggle", "doze", "wake", "cajole",
	}
)

// date range of o_orderdate per the TPC-H spec.
var (
	startDate = cloudiq.DateToDays(1992, 1, 1)
	endDate   = cloudiq.DateToDays(1998, 8, 2)
)

// The row formatters below append to one reused buffer with strconv instead
// of going through fmt: the output is byte-identical (TestGenerateGolden) and
// generation is a fixed cost of every benchmark run's set-up.

// appendInt appends v in decimal, zero-padded to width digits (fmt's %0*d
// for the non-negative values used here).
func appendInt(b []byte, v int64, width int) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], v, 10)
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// appendMoney appends f as fmt's %.2f would. Most amounts are the double
// nearest some whole number of cents, whose shortest form has at most two
// decimals and only needs padding; fixed-precision formatting, which strconv
// does in multiprecision arithmetic, is left for the rest.
func appendMoney(b []byte, f float64) []byte {
	n := len(b)
	b = strconv.AppendFloat(b, f, 'f', -1, 64)
	dot := bytes.IndexByte(b[n:], '.')
	switch {
	case dot < 0:
		return append(b, ".00"...)
	case len(b)-n-dot == 2:
		return append(b, '0')
	case len(b)-n-dot == 3:
		return b
	}
	return strconv.AppendFloat(b[:n], f, 'f', 2, 64)
}

func appendDate(b []byte, days int64) []byte {
	y, m, d := cloudiq.DaysToDate(days).Date()
	b = appendInt(b, int64(y), 4)
	b = append(b, '-')
	b = appendInt(b, int64(m), 2)
	b = append(b, '-')
	return appendInt(b, int64(d), 2)
}

// appendComment appends n filler words separated by single spaces.
func appendComment(b []byte, r *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fillerWords[r.Intn(len(fillerWords))]...)
	}
	return b
}

// appendContact appends the run supplier and customer rows share,
// "<name><key>|addr <key>|<nation>|<phone>|<balance>|", drawing the phone's
// three groups and then the balance.
func appendContact(b []byte, r *rand.Rand, name string, key int64, nation, balanceRange int) []byte {
	b = append(b, name...)
	b = appendInt(b, key, 9)
	b = append(b, "|addr "...)
	b = appendInt(b, key, 0)
	b = append(b, '|')
	b = appendInt(b, int64(nation), 0)
	b = append(b, '|')
	b = appendInt(b, int64(nation+10), 0)
	b = append(b, '-')
	b = appendInt(b, int64(r.Intn(1000)), 3)
	b = append(b, '-')
	b = appendInt(b, int64(r.Intn(1000)), 3)
	b = append(b, '-')
	b = appendInt(b, int64(r.Intn(10000)), 4)
	b = append(b, '|')
	b = appendMoney(b, float64(r.Intn(balanceRange))/100-1000)
	return append(b, '|')
}

// retailPrice is dbgen's deterministic p_retailprice formula.
func retailPrice(partkey int64) float64 {
	return float64(90000+(partkey%20001)+100*(partkey%1000)) / 100
}

// counts holds the table cardinalities for a scale factor.
type counts struct {
	suppliers, parts, customers, orders int64
}

func countsFor(sf float64) counts {
	c := counts{
		suppliers: int64(float64(supplierBase) * sf),
		parts:     int64(float64(partBase) * sf),
		customers: int64(float64(customerBase) * sf),
		orders:    int64(float64(ordersBase) * sf),
	}
	if c.suppliers < int64(len(nations)) {
		c.suppliers = int64(len(nations))
	}
	if c.parts < 8 {
		c.parts = 8
	}
	if c.customers < 6 {
		c.customers = 6
	}
	if c.orders < 10 {
		c.orders = 10
	}
	return c
}

// custWithOrders maps a random draw to a custkey that may have orders
// (dbgen: custkey % 3 != 0 never receives orders... actually the rule skips
// every third key, leaving one third of customers orderless for Q13/Q22).
func custWithOrders(r *rand.Rand, customers int64) int64 {
	for {
		c := r.Int63n(customers) + 1
		if c%3 != 0 {
			return c
		}
	}
}

// GenStats reports what Generate wrote.
type GenStats struct {
	Rows  map[string]int64
	Bytes int64
	Files int
}

// Generate writes the TPC-H dataset at scale factor sf as '|'-separated
// .tbl objects under prefix in store, in filesPerTable chunks (orders and
// lineitem are generated together so totals stay consistent). Generation is
// deterministic for a given (sf, filesPerTable).
func Generate(ctx context.Context, store cloudiq.ObjectStore, prefix string, sf float64, filesPerTable int) (GenStats, error) {
	if filesPerTable <= 0 {
		filesPerTable = 4
	}
	stats := GenStats{Rows: make(map[string]int64)}
	c := countsFor(sf)

	put := func(table string, chunk int, data []byte, rows int64) error {
		key := fmt.Sprintf("%s%s/chunk%03d.tbl", prefix, table, chunk)
		if err := store.Put(ctx, key, data); err != nil {
			return fmt.Errorf("tpch: write %s: %w", key, err)
		}
		stats.Rows[table] += rows
		stats.Bytes += int64(len(data))
		stats.Files++
		return nil
	}

	// b holds the chunk being built (lb the lineitem chunk built beside its
	// orders) and com a comment drawn before the fields that precede it in
	// the row; all three are reused across chunks — Put does not keep them.
	var b, lb, com []byte

	// region and nation are tiny fixed tables.
	for i, name := range regions {
		b = appendInt(b, int64(i), 0)
		b = append(b, '|')
		b = append(b, name...)
		b = append(b, "|regional comment|\n"...)
	}
	if err := put("region", 0, b, int64(len(regions))); err != nil {
		return stats, err
	}
	b = b[:0]
	for i, n := range nations {
		b = appendInt(b, int64(i), 0)
		b = append(b, '|')
		b = append(b, n.name...)
		b = append(b, '|')
		b = appendInt(b, int64(n.region), 0)
		b = append(b, "|national comment|\n"...)
	}
	if err := put("nation", 0, b, int64(len(nations))); err != nil {
		return stats, err
	}

	chunkRange := func(total int64, chunk int) (int64, int64) {
		lo := total * int64(chunk) / int64(filesPerTable)
		hi := total * int64(chunk+1) / int64(filesPerTable)
		return lo, hi
	}

	for chunk := 0; chunk < filesPerTable; chunk++ {
		// supplier
		r := rand.New(rand.NewSource(int64(1000 + chunk)))
		b = b[:0]
		lo, hi := chunkRange(c.suppliers, chunk)
		for k := lo; k < hi; k++ {
			key := k + 1
			// Round-robin nations so every nation has suppliers even at
			// tiny scale factors (Q7/Q20/Q21 depend on specific nations).
			nation := int(k % int64(len(nations)))
			com = appendComment(com[:0], r, 6)
			b = appendInt(b, key, 0)
			b = append(b, '|')
			b = appendContact(b, r, "Supplier#", key, nation, 2000000)
			if key%97 == 0 { // a sprinkle of Q16's excluded suppliers
				b = append(b, "sly Customer foxes nag Complaints "...)
			}
			b = append(b, com...)
			b = append(b, "|\n"...)
		}
		if err := put("supplier", chunk, b, hi-lo); err != nil {
			return stats, err
		}

		// customer
		r = rand.New(rand.NewSource(int64(2000 + chunk)))
		b = b[:0]
		lo, hi = chunkRange(c.customers, chunk)
		for k := lo; k < hi; k++ {
			key := k + 1
			nation := r.Intn(len(nations))
			b = appendInt(b, key, 0)
			b = append(b, '|')
			b = appendContact(b, r, "Customer#", key, nation, 1100000)
			b = append(b, segments[r.Intn(len(segments))]...)
			b = append(b, '|')
			b = appendComment(b, r, 8)
			b = append(b, "|\n"...)
		}
		if err := put("customer", chunk, b, hi-lo); err != nil {
			return stats, err
		}

		// part
		r = rand.New(rand.NewSource(int64(3000 + chunk)))
		b = b[:0]
		lo, hi = chunkRange(c.parts, chunk)
		for k := lo; k < hi; k++ {
			key := k + 1
			b = appendInt(b, key, 0)
			b = append(b, '|')
			for i := 0; i < 5; i++ {
				if i > 0 {
					b = append(b, ' ')
				}
				b = append(b, nameWords[r.Intn(len(nameWords))]...)
			}
			mfgr := r.Intn(5) + 1
			brand := mfgr*10 + r.Intn(5) + 1
			b = append(b, "|Manufacturer#"...)
			b = appendInt(b, int64(mfgr), 0)
			b = append(b, "|Brand#"...)
			b = appendInt(b, int64(brand), 0)
			b = append(b, '|')
			b = append(b, typeSyl1[r.Intn(len(typeSyl1))]...)
			b = append(b, ' ')
			b = append(b, typeSyl2[r.Intn(len(typeSyl2))]...)
			b = append(b, ' ')
			b = append(b, typeSyl3[r.Intn(len(typeSyl3))]...)
			b = append(b, '|')
			// The container is drawn before the size it follows in the row.
			c1, c2 := containers1[r.Intn(len(containers1))], containers2[r.Intn(len(containers2))]
			b = appendInt(b, int64(r.Intn(50)+1), 0)
			b = append(b, '|')
			b = append(b, c1...)
			b = append(b, ' ')
			b = append(b, c2...)
			b = append(b, '|')
			b = appendMoney(b, retailPrice(key))
			b = append(b, '|')
			b = appendComment(b, r, 3)
			b = append(b, "|\n"...)
		}
		if err := put("part", chunk, b, hi-lo); err != nil {
			return stats, err
		}

		// partsupp: four suppliers per part.
		r = rand.New(rand.NewSource(int64(4000 + chunk)))
		b = b[:0]
		var psRows int64
		for k := lo; k < hi; k++ {
			part := k + 1
			for s := int64(0); s < 4; s++ {
				supp := (part+s*(c.suppliers/4))%c.suppliers + 1
				b = appendInt(b, part, 0)
				b = append(b, '|')
				b = appendInt(b, supp, 0)
				b = append(b, '|')
				b = appendInt(b, int64(r.Intn(9999)+1), 0)
				b = append(b, '|')
				b = appendMoney(b, float64(r.Intn(100000))/100+1)
				b = append(b, '|')
				b = appendComment(b, r, 5)
				b = append(b, "|\n"...)
				psRows++
			}
		}
		if err := put("partsupp", chunk, b, psRows); err != nil {
			return stats, err
		}

		// orders + lineitem together so o_totalprice is consistent.
		r = rand.New(rand.NewSource(int64(5000 + chunk)))
		b, lb = b[:0], lb[:0]
		lo, hi = chunkRange(c.orders, chunk)
		var liRows int64
		cutoff := cloudiq.DateToDays(1995, 6, 17)
		for k := lo; k < hi; k++ {
			orderkey := k*4 + 1 // sparse keys, as in dbgen
			custkey := custWithOrders(r, c.customers)
			orderdate := startDate + r.Int63n(endDate-startDate-151)
			nLines := r.Intn(7) + 1
			var total float64
			allF, allO := true, true
			for ln := 0; ln < nLines; ln++ {
				partkey := r.Int63n(c.parts) + 1
				suppkey := (partkey+int64(r.Intn(4))*(c.suppliers/4))%c.suppliers + 1
				qty := float64(r.Intn(50) + 1)
				price := qty * retailPrice(partkey)
				disc := float64(r.Intn(11)) / 100
				tax := float64(r.Intn(9)) / 100
				ship := orderdate + int64(r.Intn(121)) + 1
				commit := orderdate + int64(r.Intn(61)) + 30
				receipt := ship + int64(r.Intn(30)) + 1
				rf := byte('N')
				if receipt <= cutoff {
					if r.Intn(2) == 0 {
						rf = 'R'
					} else {
						rf = 'A'
					}
				}
				ls := byte('O')
				if ship <= cutoff {
					ls = 'F'
					allO = false
				} else {
					allF = false
				}
				total += price * (1 + tax) * (1 - disc)
				lb = appendInt(lb, orderkey, 0)
				lb = append(lb, '|')
				lb = appendInt(lb, partkey, 0)
				lb = append(lb, '|')
				lb = appendInt(lb, suppkey, 0)
				lb = append(lb, '|')
				lb = appendInt(lb, int64(ln+1), 0)
				lb = append(lb, '|')
				lb = strconv.AppendFloat(lb, qty, 'g', -1, 64)
				lb = append(lb, '|')
				lb = appendMoney(lb, price)
				lb = append(lb, '|')
				lb = appendMoney(lb, disc)
				lb = append(lb, '|')
				lb = appendMoney(lb, tax)
				lb = append(lb, '|', rf, '|', ls, '|')
				lb = appendDate(lb, ship)
				lb = append(lb, '|')
				lb = appendDate(lb, commit)
				lb = append(lb, '|')
				lb = appendDate(lb, receipt)
				lb = append(lb, '|')
				lb = append(lb, instructs[r.Intn(len(instructs))]...)
				lb = append(lb, '|')
				lb = append(lb, shipmodes[r.Intn(len(shipmodes))]...)
				lb = append(lb, '|')
				lb = appendComment(lb, r, 4)
				lb = append(lb, "|\n"...)
				liRows++
			}
			status := byte('P')
			if allF {
				status = 'F'
			} else if allO {
				status = 'O'
			}
			com = appendComment(com[:0], r, 6)
			special := r.Intn(50) == 0 // Q13's excluded orders
			b = appendInt(b, orderkey, 0)
			b = append(b, '|')
			b = appendInt(b, custkey, 0)
			b = append(b, '|', status, '|')
			b = appendMoney(b, total)
			b = append(b, '|')
			b = appendDate(b, orderdate)
			b = append(b, '|')
			b = append(b, priorities[r.Intn(len(priorities))]...)
			b = append(b, "|Clerk#"...)
			b = appendInt(b, r.Int63n(c.orders/10+1)+1, 9)
			b = append(b, "|0|"...)
			if special {
				b = append(b, "waters special packages requests "...)
			}
			b = append(b, com...)
			b = append(b, "|\n"...)
		}
		if err := put("orders", chunk, b, hi-lo); err != nil {
			return stats, err
		}
		if err := put("lineitem", chunk, lb, liRows); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
