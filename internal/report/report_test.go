package report

import (
	"bytes"
	"strings"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
)

var (
	repReporter *Reporter
	repBuf      bytes.Buffer
)

// reporter returns a reporter over the 900-user world with every
// section requested, its output buffer emptied.
func reporter(t testing.TB) (*Reporter, *bytes.Buffer) {
	if repReporter == nil {
		cfg := population.DefaultConfig(900)
		cfg.Seed = 6
		ds := population.Simulate(cfg)
		r, err := NewStream(DatasetSource(ds), dynamics.MapImages(ds.CanvasImages), &repBuf, StreamOptions{}, Sections()...)
		if err != nil {
			t.Fatal(err)
		}
		repReporter = r
	}
	repBuf.Reset()
	return repReporter, &repBuf
}

// contains asserts every needle appears in the rendered output.
func contains(t *testing.T, buf *bytes.Buffer, needles ...string) {
	t.Helper()
	out := buf.String()
	for _, n := range needles {
		if !strings.Contains(out, n) {
			t.Errorf("output missing %q\n--- got:\n%.600s", n, out)
		}
	}
}

func TestSummary(t *testing.T) {
	r, buf := reporter(t)
	r.Summary()
	contains(t, buf, "fingerprints", "browser instances", "dynamics")
}

func TestEstimateSection(t *testing.T) {
	r, buf := reporter(t)
	r.Estimate()
	contains(t, buf, "§2.3.3", "false negatives", "false positives", "cookie-clearing")
}

func TestFig2Section(t *testing.T) {
	r, buf := reporter(t)
	r.Render("fig2")
	contains(t, buf, "Figure 2", "Mobile Safari", "desktop", "set size ≤")
	// Ten threshold rows.
	if got := strings.Count(buf.String(), "%"); got < 40 {
		t.Errorf("expected a dense percentage table, saw %d%% signs", got)
	}
}

func TestTable1Section(t *testing.T) {
	r, buf := reporter(t)
	r.Render("table1")
	contains(t, buf, "Table 1", "Font List", "User-agent", "Overall (excluding IP)", "Dyn Distinct #")
}

func TestFig3Through7Sections(t *testing.T) {
	r, buf := reporter(t)
	r.Render("fig3")
	r.Render("fig4")
	r.Render("fig5")
	r.Render("fig6")
	r.Render("fig7")
	contains(t, buf,
		"Figure 3", "browser IDs per user ID",
		"Figure 4", "first-time visits",
		"Figure 5", "Chrome",
		"Figure 6", "Windows",
		"Figure 7", "stable share",
	)
}

func TestTable2Section(t *testing.T) {
	r, buf := reporter(t)
	r.Table2()
	contains(t, buf,
		"Table 2", "OS Updates", "Browser Updates", "User Actions", "Environment Updates",
		"change timezone", "Total (instances with ≥1 change)",
	)
}

func TestFig8Section(t *testing.T) {
	r, buf := reporter(t)
	r.Render("fig8")
	contains(t, buf, "Figure 8", "emoji-only: true", "pixel difference map")
	// The diff map must mark changes only in the right (emoji) half.
	for _, line := range strings.Split(buf.String(), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, ".") && !strings.HasPrefix(line, "X") {
			continue
		}
		if strings.Contains(line[:len(line)/2], "X") {
			t.Fatalf("text-band pixels changed in the fig8 map: %q", line)
		}
	}
}

func TestTable3Section(t *testing.T) {
	r, buf := reporter(t)
	r.Render("table3")
	contains(t, buf, "Table 3", "Correlated feature")
}

func TestFig12Section(t *testing.T) {
	r, buf := reporter(t)
	r.Render("fig12")
	contains(t, buf, "Figure 12", "Chrome → 64", "Firefox → 59", "released")
}

func TestInsightSections(t *testing.T) {
	r, buf := reporter(t)
	r.Render("insight1")
	r.Render("insight3")
	contains(t, buf,
		"Insight 1.2", "Office", "Insight 1.3", "Insight 1.4", "VPN/proxy",
		"Insight 3", "lift",
	)
}

func TestCompressionSection(t *testing.T) {
	r, buf := reporter(t)
	r.Render("compression")
	contains(t, buf, "delta ablation", "compression")
}

func TestTradeoffSection(t *testing.T) {
	r, buf := reporter(t)
	r.Render("tradeoff")
	contains(t, buf, "uniqueness", "Entropy (bits)", "Font List")
}

func TestStemmingSection(t *testing.T) {
	r, buf := reporter(t)
	r.Render("stemming")
	contains(t, buf, "feature-stemming", "identifiable at anonymous-set size 1")
}

// TestInsight1FixedOrder renders Insight 1 repeatedly on a world with
// several emoji-leaking browser families: the family rows must come out
// in the same order every time, not in map order.
func TestInsight1FixedOrder(t *testing.T) {
	r, buf := reporter(t)
	r.Render("insight1")
	first := buf.String()
	if n := strings.Count(first, "leaking dynamics"); n < 2 {
		t.Fatalf("world has %d leaking families, need at least 2 to test the order", n)
	}
	for i := 0; i < 20; i++ {
		buf.Reset()
		r.Render("insight1")
		if got := buf.String(); got != first {
			t.Fatalf("render %d differs:\n--- got ---\n%s\n--- first ---\n%s", i+1, got, first)
		}
	}
}
