package core

import (
	"fmt"
	"strings"
)

// Option names: the one spelling of each evaluator, objective, search
// and robust criterion that the CLIs, the windimd job spec and the shard
// manifest accept and write. Each table is indexed by the enum value.
// (String gives the longer report spelling, e.g. "sigma-mva".)
var (
	evaluatorNames = []string{EvalSigmaMVA: "sigma", EvalSchweitzerMVA: "schweitzer",
		EvalExactMVA: "exact", EvalLinearizerMVA: "linearizer"}
	objectiveNames = []string{ObjNetworkPower: "power", ObjMinClassPower: "min-class",
		ObjSumClassPower: "sum-class"}
	searchNames = []string{PatternSearch: "pattern", ExhaustiveSearch: "exhaustive"}
	robustNames = []string{RobustMinimax: "minmax", RobustWeighted: "weighted"}
)

// ParseEvaluator maps an evaluator name to its value; an unknown name is
// an error that lists the valid ones, as for the other Parse functions.
func ParseEvaluator(s string) (Evaluator, error) {
	return parseName[Evaluator]("evaluator", evaluatorNames, s)
}

// ParseObjective maps an objective name to its value.
func ParseObjective(s string) (ObjectiveKind, error) {
	return parseName[ObjectiveKind]("objective", objectiveNames, s)
}

// ParseSearch maps a search name to its value.
func ParseSearch(s string) (SearchKind, error) {
	return parseName[SearchKind]("search", searchNames, s)
}

// ParseRobustKind maps a robust criterion name to its value.
func ParseRobustKind(s string) (RobustKind, error) {
	return parseName[RobustKind]("robust criterion", robustNames, s)
}

// Name is the option name of e, or "" for a value outside the table.
func (e Evaluator) Name() string { return nameOf(evaluatorNames, int(e)) }

// Name is the option name of o, or "" for a value outside the table.
func (o ObjectiveKind) Name() string { return nameOf(objectiveNames, int(o)) }

func parseName[T ~int](what string, names []string, s string) (T, error) {
	for i, n := range names {
		if n == s {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(names, ", "))
}

func nameOf(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return ""
	}
	return names[i]
}
