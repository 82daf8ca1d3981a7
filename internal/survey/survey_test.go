package survey

import (
	"strings"
	"testing"
)

func TestPaperSessionsMatchTableI(t *testing.T) {
	sessions := PaperSessions()
	if len(sessions) != 4 {
		t.Fatalf("%d sessions, want 4", len(sessions))
	}
	wantCounts := []int{25, 15, 36, 32}
	for i, s := range sessions {
		if s.Participants != wantCounts[i] {
			t.Errorf("session %d: %d participants, want %d", i, s.Participants, wantCounts[i])
		}
	}
	if Total(sessions) != 108 {
		t.Errorf("total = %d, want 108 (Table I)", Total(sessions))
	}
}

func TestPaperSessionsModalities(t *testing.T) {
	inPerson, virtual := 0, 0
	for _, s := range PaperSessions() {
		switch s.Modality {
		case "In-person":
			inPerson++
		case "Virtual":
			virtual++
		default:
			t.Errorf("unknown modality %q", s.Modality)
		}
	}
	if inPerson != 2 || virtual != 2 {
		t.Errorf("modalities %d/%d, want 2/2", inPerson, virtual)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable(PaperSessions())
	for _, want := range []string{
		"San Diego Supercomputer Center", "University of Delaware", "Webinar",
		"University of Tennessee Knoxville", "Total Participants", "108",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 7 {
		t.Errorf("table has %d lines, want 7", len(lines))
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		StronglyDisagree: "Strongly disagree",
		Neutral:          "Neutral",
		StronglyAgree:    "Strongly agree",
	}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d: %q", int(l), l.String())
		}
	}
}

func TestFig8QuestionsCoverBothCategories(t *testing.T) {
	qs := Fig8Questions()
	if len(qs) != 4 {
		t.Fatalf("%d questions, want 4", len(qs))
	}
	cats := map[string]int{}
	ids := map[string]bool{}
	for _, q := range qs {
		cats[q.Category]++
		if ids[q.ID] {
			t.Errorf("duplicate question id %s", q.ID)
		}
		ids[q.ID] = true
	}
	if cats["user experience"] == 0 || cats["technology exposure"] == 0 {
		t.Errorf("categories %v", cats)
	}
}

func TestDistributionMath(t *testing.T) {
	var d Distribution
	d.Counts = [5]int{1, 1, 2, 3, 3} // n=10
	if d.N() != 10 {
		t.Errorf("N = %d", d.N())
	}
	// mean = (1*1+2*1+3*2+4*3+5*3)/10 = (1+2+6+12+15)/10 = 3.6
	if got := d.MeanScore(); got != 3.6 {
		t.Errorf("mean = %v", got)
	}
	if got := d.PercentPositive(); got != 0.6 {
		t.Errorf("positive = %v", got)
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.MeanScore() != 0 || d.PercentPositive() != 0 || d.N() != 0 {
		t.Error("empty distribution not all-zero")
	}
}

func TestSynthesizeResponsesDeterministicAndPositive(t *testing.T) {
	qs := Fig8Questions()
	a := SynthesizeResponses(qs, 108, 7)
	b := SynthesizeResponses(qs, 108, 7)
	for i := range a {
		if a[i].Counts != b[i].Counts {
			t.Errorf("question %s: same-seed distributions differ", a[i].Question.ID)
		}
		if a[i].N() != 108 {
			t.Errorf("question %s: n = %d", a[i].Question.ID, a[i].N())
		}
		// "Overwhelmingly positive": >= 75% positive with this calibration.
		if a[i].PercentPositive() < 0.75 {
			t.Errorf("question %s: positive = %v", a[i].Question.ID, a[i].PercentPositive())
		}
		if a[i].MeanScore() < 4.0 {
			t.Errorf("question %s: mean = %v", a[i].Question.ID, a[i].MeanScore())
		}
	}
	c := SynthesizeResponses(qs, 108, 8)
	same := true
	for i := range a {
		if a[i].Counts != c[i].Counts {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical distributions")
	}
}

func TestRenderChart(t *testing.T) {
	d := SynthesizeResponses(Fig8Questions()[:1], 50, 1)[0]
	out := RenderChart(&d, 30)
	for _, want := range []string{"(a)", "Strongly agree", "Strongly disagree", "n=50"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 6 {
		t.Errorf("chart has %d lines, want 6", len(lines))
	}
	// Bars scale: the longest bar equals the requested width.
	if !strings.Contains(out, strings.Repeat("#", 30)) {
		t.Error("no full-width bar for the modal level")
	}
}

func TestRenderChartZeroWidthDefaults(t *testing.T) {
	var d Distribution
	d.Question = Fig8Questions()[0]
	d.Counts[Agree] = 1
	if out := RenderChart(&d, 0); !strings.Contains(out, "#") {
		t.Error("default width chart empty")
	}
}
