package main

import (
	"reflect"
	"testing"
	"time"

	"nsdfgo/internal/loadgen"
)

// TestParseSpecs covers both list parsers: well-formed lists decode,
// and out-of-range or non-finite numbers (which strconv.ParseFloat
// accepts as "NaN" and "Inf") are refused.
func TestParseSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parse func(string) (any, error)
		spec  string
		want  any
	}{
		{"phases", phases, "warm:10s:1,burst:20s:4,idle:1s:0", []loadgen.Phase{
			{Name: "warm", Duration: 10 * time.Second, Rate: 1},
			{Name: "burst", Duration: 20 * time.Second, Rate: 4},
			{Name: "idle", Duration: time.Second, Rate: 0},
		}},
		{"phases empty", phases, "", []loadgen.Phase(nil)},
		{"phases negative", phases, "warm:10s:-1", nil},
		{"phases NaN", phases, "warm:10s:NaN", nil},
		{"phases Inf", phases, "warm:10s:Inf", nil},
		{"phases bad duration", phases, "warm:often:1", nil},
		{"phases short", phases, "warm:10s", nil},
		{"boxes", fractions, "0.05, 0.25,1.0", []float64{0.05, 0.25, 1}},
		{"boxes zero", fractions, "0", nil},
		{"boxes above one", fractions, "1.5", nil},
		{"boxes NaN", fractions, "NaN", nil},
		{"boxes Inf", fractions, "0.5,Inf", nil},
		{"boxes -Inf", fractions, "-Inf", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.parse(tc.spec)
			if tc.want == nil {
				if err == nil {
					t.Errorf("%q accepted as %v", tc.spec, got)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%q = %v, %v; want %v", tc.spec, got, err, tc.want)
			}
		})
	}
}

func phases(spec string) (any, error)    { return parsePhases(spec) }
func fractions(spec string) (any, error) { return parseFractions(spec) }
