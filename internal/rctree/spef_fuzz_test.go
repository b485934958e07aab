package rctree

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseSPEF pins the parser's robustness contract: arbitrary input
// never panics, every rejection is a typed *SPEFError, and every accepted
// document yields structurally valid trees.
func FuzzParseSPEF(f *testing.F) {
	tr := NewTree("n1", 0.05e-15)
	a := tr.MustAddNode("a", 0, 50, 1e-15)
	tr.MustAddNode("pin:U1:A", a, 25, 2e-15)
	var b strings.Builder
	if err := WriteSPEF(&b, "fuzz", []*Tree{tr}); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		b.String(),
		"*D_NET",
		"*D_NET n 1\n*CAP\n1 n:root x\n*END\n",
		"*D_NET n 1\n*RES\n1 n:a n:b nope\n*END\n",
		"*C_UNIT 1 PF\n",
		"*R_UNIT 1 KOHM\n",
		"*D_NET n 1\n*CAP\n1 n:a 2\n*END\n", // no root
		"*D_NET n 1\n*RES\n1 n:root n:a 10\n2 n:a n:root 10\n*END\n", // loop
		"*D_NET n 1\n*RES\n1 n:root n:a -5\n*END\n",                  // negative R
		"*D_NET n 1\n*CAP\n1 n:root 0.05\n*RES\n",                    // unterminated
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		trees, err := ParseSPEF(strings.NewReader(src))
		if err != nil {
			var se *SPEFError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSPEF returned a non-typed error %T: %v", err, err)
			}
			return
		}
		for net, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted tree %s fails validation: %v", net, err)
			}
		}
	})
}
