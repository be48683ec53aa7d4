package exp

import (
	"os"
	"path/filepath"
	"testing"

	"pivot/internal/machine"
)

// TestFigureTablesGoldenQuick proves the scenario-driven figure harnesses
// render byte-identical tables to the pinned goldens (fig1/fig5/fig8 were
// captured with `go run ./cmd/pivot-exp -quick -quiet figN` before the
// scenario layer existed; the rest when their harnesses stabilised). Every
// builtin figure, extension and the sensitivity study is pinned, so any
// refactor that shifts a single table cell at quick scale fails here with a
// byte diff.
func TestFigureTablesGoldenQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale figure runs take minutes")
	}
	ctx := NewContext(machine.KunpengConfig(8), Quick())
	for _, id := range []string{
		"fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
		"fig12", "fig13", "fig13emu", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
		"hybrid", "noprofile", "prefetch", "sens",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden_quick_"+id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			tables, err := Registry()[id].Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var got string
			for _, tb := range tables {
				got += tb.String() + "\n"
			}
			if got != string(want) {
				t.Errorf("%s table drifted from the pre-refactor golden:\ngot:\n%swant:\n%s",
					id, got, want)
			}
			if id == "sens" {
				// The default profiling parameters at the default refresh
				// interval are one configuration, so both tables must report
				// the same EMU for it.
				refresh, params := tables[0], tables[1]
				if params.Rows[0][1] != refresh.Rows[0][1] {
					t.Errorf("sens: default-params EMU %s != 1x-refresh EMU %s",
						params.Rows[0][1], refresh.Rows[0][1])
				}
			}
		})
	}
}
