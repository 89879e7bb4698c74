package expr

import (
	"errors"
	"testing"
)

var (
	fuzzCols     = []string{"i", "f", "s", "d", "ghost"}
	fuzzStrings  = []string{"alpha", "beta", "", "alp", "betamax"}
	fuzzPatterns = []string{"%", "alp%", "%ta", "%et%", "%a%a%", "alpha", "%lp%a", ""}
)

// fuzzNode decodes a tree from a prefix encoding: four bytes per node
// (operator, a selector for the column/string/pattern/set fields, a signed
// number for the numeric fields, an operand count 0–4) followed by the
// operands. Nothing is validated — unknown operators, wrong arities and
// ill-typed operands all come out — and an exhausted input, a 0xFF operator
// byte or excessive depth yields a nil operand.
func fuzzNode(data []byte, depth int) (*Node, []byte) {
	if len(data) < 4 || data[0] == 0xFF || depth > 8 {
		return nil, nil
	}
	sel, num, kids := int(data[1]), int(int8(data[2])), int(data[3]%5)
	n := &Node{
		Op:      Op(data[0] % byte(numOps+1)), // numOps itself: an unknown operator
		Col:     fuzzCols[sel%len(fuzzCols)],
		I:       int64(num),
		F:       float64(num) / 4,
		S:       fuzzStrings[sel%len(fuzzStrings)],
		Pattern: fuzzPatterns[sel%len(fuzzPatterns)],
		Neg:     sel&0x80 != 0,
		Set:     NewSet(fuzzStrings[:sel%len(fuzzStrings)]),
		Start:   num,
		N:       sel%9 - 2,
	}
	data = data[4:]
	for i := 0; i < kids; i++ {
		var kid *Node
		kid, data = fuzzNode(data, depth+1)
		n.Args = append(n.Args, kid)
	}
	return n, data
}

// enc is fuzzNode's inverse for building seeds.
func enc(op Op, sel, num byte, kids ...[]byte) []byte {
	out := []byte{byte(op), sel, num, byte(len(kids))}
	for _, k := range kids {
		out = append(out, k...)
	}
	return out
}

// fuzzSeeds are the shapes exec's differential generator draws: numeric
// comparisons over arithmetic and CASE, LIKE and IN over SUBSTRING, string
// comparisons, and boolean combinators over them.
func fuzzSeeds() [][]byte {
	colI, colF, colS := enc(OpCol, 0, 0), enc(OpCol, 1, 0), enc(OpCol, 2, 0)
	cmpIF := enc(OpLt, 0, 0, enc(OpAdd, 0, 0, colI, enc(OpInt, 0, 5)), enc(OpDiv, 0, 0, colF, enc(OpFloat, 0, 6)))
	likeSub := enc(OpLike, 0x81, 0, enc(OpSubstr, 3, 2, colS))
	inS := enc(OpIn, 4, 0, colS)
	caseN := enc(OpCase, 0, 0, cmpIF, enc(OpMul, 0, 0, colI, colI), enc(OpSub, 0, 0, colF, enc(OpInt, 0, 0xFE)))
	return [][]byte{
		cmpIF, likeSub, inS, caseN,
		enc(OpAnd, 0, 0, cmpIF, enc(OpNot, 0, 0, likeSub)),
		enc(OpOr, 0, 0, inS, enc(OpGe, 0, 0, caseN, enc(OpFloat, 0, 3))),
		enc(OpEq, 0, 0, enc(OpSubstr, 0, 0xFD, colS), enc(OpStr, 3, 0)),
		enc(OpYear, 0, 0, enc(OpCol, 3, 0)),
		enc(OpAnd, 0, 0, colF, colF),          // ill-typed
		enc(OpAdd, 0, 0, colI),                // wrong arity
		enc(numOps, 0, 0), {0xFF}, {}, {1, 2}, // unknown operator, nil trees
	}
}

// FuzzSelect: whatever the tree and whichever rows it starts from, Select
// keeps what Eval marks non-zero and fails when Eval does, and a prepared
// Filter over the same columns stored as pages, s a dictionary, agrees with
// Select (selectAgrees and its dictionary mode).
func FuzzSelect(f *testing.F) {
	colI, colF, colS := enc(OpCol, 0, 0), enc(OpCol, 1, 0), enc(OpCol, 2, 0)
	for i, seed := range append(fuzzSeeds(),
		enc(OpGt, 0, 0, enc(OpFloat, 0, 2), colF),                                             // literal on the left, NaN data
		enc(OpOr, 0, 0, enc(OpEq, 0, 0, colI, enc(OpInt, 0, 7)), enc(OpLe, 0, 0, colF, colI)), // OR's merge, mixed vectors
		enc(OpAnd, 0, 0, enc(OpLt, 0, 0, colI, enc(OpInt, 0, 0x80)), enc(OpCol, 4, 0)),        // nothing survives the left; the right is no column
		// One string column alone: over its dictionary page, code space.
		enc(OpOr, 0, 0, enc(OpEq, 0, 0, colS, enc(OpStr, 0, 0)), enc(OpLike, 1, 0, colS)),                 // OR
		enc(OpNot, 0, 0, enc(OpIn, 3, 0, colS)),                                                           // NOT
		enc(OpAnd, 0, 0, enc(OpLt, 0, 0, colI, enc(OpInt, 0, 7)), enc(OpIn, 2, 0, colS)),                  // IN after a numeric conjunct
		enc(OpLike, 0x83, 0, colS),                                                                        // NOT LIKE
		enc(OpEq, 0, 0, enc(OpSubstr, 5, 1, colS), enc(OpStr, 3, 0)),                                      // Substr
		enc(OpAnd, 0, 0, enc(OpLt, 0, 0, colI, enc(OpInt, 0, 0x80)), enc(OpIn, 4, 0, colS)),               // nothing left for the words
		enc(OpOr, 0, 0, enc(OpEq, 0, 0, colS, enc(OpStr, 0, 0)), enc(OpLt, 0, 0, colI, enc(OpInt, 0, 0))), // two columns: rows
	) {
		f.Add(seed, uint8(i*5))
	}
	env := testEnv()
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		e, _ := fuzzNode(data, 0)
		if err := selectAgrees(e, env, uint64(mask)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzEval: whatever the tree, Eval returns an ErrInvalid error or a vector
// of exactly the environment's row count. It never panics.
func FuzzEval(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	env := testEnv()
	f.Fuzz(func(t *testing.T, data []byte) {
		e, _ := fuzzNode(data, 0)
		v, err := e.Eval(env)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error does not wrap ErrInvalid: %v", err)
			}
			return
		}
		if v.Len() != env.N {
			t.Fatalf("%d rows, want %d", v.Len(), env.N)
		}
	})
}
