// Package survey models the evaluation instruments of the NSDF tutorial
// paper: the participant roster across the four delivery venues (Table I)
// and the Likert-scale exit survey whose distributions appear in Fig. 8.
// The roster encodes the published counts verbatim; the survey responses
// are synthesised from a seeded generator calibrated to the paper's
// qualitative summary ("the feedback from the tutorial sessions was
// overwhelmingly positive"), so the harness can regenerate the table and
// charts deterministically.
package survey

import (
	"fmt"
	"math/rand"
	"strings"
)

// Session is one delivery of the tutorial (a row of Table I).
type Session struct {
	// Venue names where the tutorial ran.
	Venue string
	// Modality is "In-person" or "Virtual".
	Modality string
	// Audience describes the participant background.
	Audience string
	// Participants is the attendee count.
	Participants int
}

// PaperSessions returns the four sessions of Table I with the published
// participant counts (total 108).
func PaperSessions() []Session {
	return []Session{
		{Venue: "National Science Data Fabric All Hands Meeting, San Diego Supercomputer Center", Modality: "In-person", Audience: "Computer science experts", Participants: 25},
		{Venue: "Research group, University of Delaware", Modality: "Virtual", Audience: "Domain science experts", Participants: 15},
		{Venue: "National Science Data Fabric Webinar", Modality: "Virtual", Audience: "General public", Participants: 36},
		{Venue: "Class at the University of Tennessee Knoxville (undergraduate and graduate students)", Modality: "In-person", Audience: "Undergraduate and graduate students", Participants: 32},
	}
}

// Total sums participants across sessions.
func Total(sessions []Session) int {
	total := 0
	for _, s := range sessions {
		total += s.Participants
	}
	return total
}

// RenderTable formats sessions as the fixed-width Table I used by the
// experiment harness.
func RenderTable(sessions []Session) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-88s | %-9s | %-35s | %s\n", "Tutorial", "Modality", "Audience", "Participants")
	sb.WriteString(strings.Repeat("-", 160) + "\n")
	for _, s := range sessions {
		fmt.Fprintf(&sb, "%-88s | %-9s | %-35s | %d\n", s.Venue, s.Modality, s.Audience, s.Participants)
	}
	fmt.Fprintf(&sb, "%-88s | %-9s | %-35s | %d\n", "Total Participants", "", "", Total(sessions))
	return sb.String()
}

// Level is a 5-point Likert response.
type Level int

// Likert levels, ordered from most negative to most positive.
const (
	StronglyDisagree Level = iota
	Disagree
	Neutral
	Agree
	StronglyAgree
	numLevels
)

// String returns the level's survey label.
func (l Level) String() string {
	switch l {
	case StronglyDisagree:
		return "Strongly disagree"
	case Disagree:
		return "Disagree"
	case Neutral:
		return "Neutral"
	case Agree:
		return "Agree"
	case StronglyAgree:
		return "Strongly agree"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Question is one survey item of Fig. 8.
type Question struct {
	// ID is the subfigure label ("a".."d").
	ID string
	// Text is the statement participants rated.
	Text string
	// Category groups the question ("user experience" or
	// "technology exposure").
	Category string
}

// Fig8Questions returns the four survey statements charted in Fig. 8.
func Fig8Questions() []Question {
	return []Question{
		{ID: "a", Text: "The study case demonstrated the visualization and analysis capabilities of NSDF.", Category: "technology exposure"},
		{ID: "b", Text: "The tutorial methodology can be generalized for other datasets and study cases.", Category: "technology exposure"},
		{ID: "c", Text: "The dashboard enabled meaningful visualization and analysis.", Category: "technology exposure"},
		{ID: "d", Text: "The workflow was easy to follow and understand.", Category: "user experience"},
	}
}

// Distribution is the response histogram of one question.
type Distribution struct {
	// Question is the rated statement.
	Question Question
	// Counts holds responses per level, indexed by Level.
	Counts [int(numLevels)]int
}

// N returns the respondent count.
func (d *Distribution) N() int {
	total := 0
	for _, c := range d.Counts {
		total += c
	}
	return total
}

// MeanScore returns the mean response on the 1..5 scale.
func (d *Distribution) MeanScore() float64 {
	n := d.N()
	if n == 0 {
		return 0
	}
	sum := 0
	for l, c := range d.Counts {
		sum += (l + 1) * c
	}
	return float64(sum) / float64(n)
}

// PercentPositive returns the fraction of Agree/StronglyAgree responses.
func (d *Distribution) PercentPositive() float64 {
	n := d.N()
	if n == 0 {
		return 0
	}
	return float64(d.Counts[Agree]+d.Counts[StronglyAgree]) / float64(n)
}

// SynthesizeResponses generates the Fig. 8 response distributions for n
// respondents under the paper's qualitative calibration: responses are
// drawn with ~60% strongly agree, ~30% agree, ~7% neutral, ~3% negative.
// The draw is deterministic in seed.
func SynthesizeResponses(questions []Question, n int, seed int64) []Distribution {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Distribution, len(questions))
	for qi, q := range questions {
		out[qi].Question = q
		for i := 0; i < n; i++ {
			r := rng.Float64()
			var l Level
			switch {
			case r < 0.60:
				l = StronglyAgree
			case r < 0.90:
				l = Agree
			case r < 0.97:
				l = Neutral
			case r < 0.99:
				l = Disagree
			default:
				l = StronglyDisagree
			}
			out[qi].Counts[l]++
		}
	}
	return out
}

// RenderChart draws one distribution as a horizontal ASCII bar chart, the
// text analogue of a Fig. 8 panel. width sets the maximum bar length.
func RenderChart(d *Distribution, width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range d.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s) %s  [n=%d, mean=%.2f, positive=%.0f%%]\n",
		d.Question.ID, d.Question.Text, d.N(), d.MeanScore(), 100*d.PercentPositive())
	for l := int(numLevels) - 1; l >= 0; l-- {
		bar := 0
		if maxCount > 0 {
			bar = d.Counts[l] * width / maxCount
		}
		fmt.Fprintf(&sb, "  %-18s |%s %d\n", Level(l).String(), strings.Repeat("#", bar), d.Counts[l])
	}
	return sb.String()
}
