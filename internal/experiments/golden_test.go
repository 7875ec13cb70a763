package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/compiler"
)

// TestFigureTablesGolden checks that every Fig. 4–9 table on the tiny
// suite prints byte-for-byte what it printed before the figures shared
// one measurement path. The SHA-256 digests were recorded on the commit
// before Figs. 4–9 moved onto the Characterize stage, when each figure
// still ran its own VM passes.
func TestFigureTablesGolden(t *testing.T) {
	r, ctx, suite := DefaultRunner(), background(), tiny()
	type printable interface{ Print(io.Writer) }
	tables := []struct {
		name, digest string
		run          func() (printable, error)
	}{
		{"fig4", "7d0ddbf17b94140a8925806b707d3799a165052dd1623dde0a056be5ceb3a40c",
			func() (printable, error) { return r.Fig4(ctx, suite) }},
		{"fig5", "c6231dd9f3709487acdcfce21051a1e6c155525f2bc0344904b5548e23e57218",
			func() (printable, error) { return r.Fig5(ctx, suite) }},
		{"fig6a", "1ad6d617aa73475e24a01f0c2660b2e8bbaf32ba849cfcc7441894906aeea5fd",
			func() (printable, error) { return r.Fig6(ctx, suite, compiler.O0) }},
		{"fig6b", "1502dc6ebb85279cd23f83c85d8f7ce9e281d413aca8f178193c17d3cdf0471b",
			func() (printable, error) { return r.Fig6(ctx, suite, compiler.O2) }},
		{"fig7", "8d9882b092eec85da230f7990d41ab2448560df60a7e316103a316f5506d6051",
			func() (printable, error) { return r.FigCache(ctx, suite, compiler.O0) }},
		{"fig8", "4c8b9ab9d4a5c113d8115d4e6ce443285515069b691235ce18afd337136b141c",
			func() (printable, error) { return r.FigCache(ctx, suite, compiler.O2) }},
		{"fig9", "b7392631b61e13a3a71751a1d8d34ce7b7df0f474d4daa309897ba01804113d4",
			func() (printable, error) { return r.Fig9(ctx, suite) }},
	}
	for _, tb := range tables {
		res, err := tb.run()
		if err != nil {
			t.Fatalf("%s: %v", tb.name, err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tb.digest {
			t.Errorf("%s: table digest %s, want %s\n%s", tb.name, got, tb.digest, buf.String())
		}
	}
}
