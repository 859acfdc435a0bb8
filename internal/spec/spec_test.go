package spec

import (
	"reflect"
	"strings"
	"testing"
)

// TestSplit pins the lexical rules every grammar reads through: trimming,
// skipped empty declarations and parameters, the head cut at the first
// ':', values cut at the first '=', and bare tokens.
func TestSplit(t *testing.T) {
	got := Split(" a:x=1, y = 2 ,,flag, ;; b ; c:k=v=w;d:", ";")
	want := []Decl{
		{Text: "a:x=1, y = 2 ,,flag,", Head: "a", Colon: true, Params: []Param{
			{Key: "x", Value: "1"}, {Key: "y", Value: "2"}, {Key: "flag", Bare: true},
		}},
		{Text: "b", Head: "b"},
		{Text: "c:k=v=w", Head: "c", Colon: true, Params: []Param{{Key: "k", Value: "v=w"}}},
		{Text: "d:", Head: "d", Colon: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Split =\n  %+v\nwant\n  %+v", got, want)
	}
	if d := Split("  |  | ", "|"); len(d) != 0 {
		t.Fatalf("blank spec split into %+v", d)
	}
}

func TestCheck(t *testing.T) {
	keys := []string{"rate", "dev"}
	for _, tc := range []struct {
		in, want string // want "" = accepted
	}{
		{"h:rate=1,dev=2,", ""},
		{"h:pareto,rate=1", ""},
		{"h:rate", `parameter "rate" is not key=value`},
		{"h:rte=abc", `unknown parameter "rte" (did you mean "rate"?) (known: rate, dev)`},
	} {
		err := Split(tc.in, ";")[0].Check(keys, "pareto")
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("Check(%q) = %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestFloat(t *testing.T) {
	if f, err := Float("p", "0.25"); f != 0.25 || err != nil {
		t.Fatalf("Float(0.25) = %v, %v", f, err)
	}
	for val, want := range map[string]string{
		"abc":   `p="abc" is not a number`,
		"NaN":   "p=NaN is not a finite number",
		"Inf":   "p=+Inf is not a finite number",
		"-inf":  "p=-Inf is not a finite number",
		"1e309": "p=+Inf is not a finite number",
	} {
		if _, err := Float("p", val); err == nil || err.Error() != want {
			t.Errorf("Float(%q) = %v, want %q", val, err, want)
		}
	}
}

func TestCheckName(t *testing.T) {
	for _, name := range []string{"cam", "scenario1+2", "a.b_c-d"} {
		if err := CheckName(name); err != nil {
			t.Errorf("CheckName(%q) = %v", name, err)
		}
	}
	for name, want := range map[string]string{
		"":          "empty name",
		"has space": "characters outside",
		"a;b":       "characters outside",
		"a=b":       "characters outside",
	} {
		if err := CheckName(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckName(%q) = %v, want %q", name, err, want)
		}
	}
}

func TestUnknownHint(t *testing.T) {
	known := []string{"board-crash", "board-hang", "reconfig-fail"}
	for name, hint := range map[string]string{
		"board-cras":       ` (did you mean "board-crash"?)`,
		"Board_Crash":      ` (did you mean "board-crash"?)`,
		"completely-bogus": "",
	} {
		want := `unknown kind "` + name + `"` + hint + " (known: board-crash, board-hang, reconfig-fail)"
		if err := Unknown("kind", name, known); err.Error() != want {
			t.Errorf("Unknown(%q) = %q, want %q", name, err, want)
		}
	}
}
