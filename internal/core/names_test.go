package core

import (
	"strings"
	"testing"
)

// TestOptionNamesRoundTrip: every value of every option table parses
// back from its name, every name is distinct, and unknown names are
// rejected with the full list of valid ones.
func TestOptionNamesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		what  string
		names []string
		parse func(string) (int, error)
	}{
		{"evaluator", evaluatorNames, func(s string) (int, error) { v, err := ParseEvaluator(s); return int(v), err }},
		{"objective", objectiveNames, func(s string) (int, error) { v, err := ParseObjective(s); return int(v), err }},
		{"search", searchNames, func(s string) (int, error) { v, err := ParseSearch(s); return int(v), err }},
		{"robust criterion", robustNames, func(s string) (int, error) { v, err := ParseRobustKind(s); return int(v), err }},
	} {
		seen := map[string]bool{}
		for i, name := range tc.names {
			if name == "" || seen[name] {
				t.Errorf("%s %d: empty or duplicate name %q", tc.what, i, name)
			}
			seen[name] = true
			if v, err := tc.parse(name); err != nil || v != i {
				t.Errorf("%s %q parses to %d, %v; want %d", tc.what, name, v, err, i)
			}
		}
		for _, bad := range []string{"", "psychic", strings.ToUpper(tc.names[0]), tc.names[0] + " "} {
			_, err := tc.parse(bad)
			if err == nil || !strings.Contains(err.Error(), "unknown "+tc.what) ||
				!strings.Contains(err.Error(), strings.Join(tc.names, ", ")) {
				t.Errorf("%s %q: err = %v", tc.what, bad, err)
			}
		}
	}

	// The names the shard manifest writes, and the report spellings that
	// feed modelHash and the printed reports, which must not change.
	for e, want := range map[Evaluator][2]string{
		EvalSigmaMVA:      {"sigma", "sigma-mva"},
		EvalSchweitzerMVA: {"schweitzer", "schweitzer-mva"},
		EvalExactMVA:      {"exact", "exact-mva"},
		EvalLinearizerMVA: {"linearizer", "linearizer-mva"},
		Evaluator(9):      {"", "Evaluator(9)"},
	} {
		if e.Name() != want[0] || e.String() != want[1] {
			t.Errorf("evaluator %d: Name %q String %q, want %q", int(e), e.Name(), e.String(), want)
		}
	}
	for o, want := range map[ObjectiveKind][2]string{
		ObjNetworkPower:   {"power", "network-power"},
		ObjMinClassPower:  {"min-class", "min-class-power"},
		ObjSumClassPower:  {"sum-class", "sum-class-power"},
		ObjectiveKind(-1): {"", "ObjectiveKind(-1)"},
	} {
		if o.Name() != want[0] || o.String() != want[1] {
			t.Errorf("objective %d: Name %q String %q, want %q", int(o), o.Name(), o.String(), want)
		}
	}
	if PatternSearch.String() != "pattern" || ExhaustiveSearch.String() != "exhaustive" || SearchKind(5).String() != "SearchKind(5)" {
		t.Error("search String changed")
	}
	if RobustMinimax.String() != "minmax" || RobustWeighted.String() != "weighted" || RobustKind(5).String() != "RobustKind(5)" {
		t.Error("robust String changed")
	}
}
