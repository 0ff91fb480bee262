package callgraph

import (
	"sort"
	"strings"
	"testing"

	"deadmembers/internal/frontend"
)

// TestDuplicateSitesRecordedOnce: N copies of a virtual call, and of a
// delete, in one caller are one site each. A second method, or the same
// call in a second caller, is a site of its own.
func TestDuplicateSitesRecordedOnce(t *testing.T) {
	const n = 50
	src := `
class A { public: virtual int f() { return 1; } virtual int g() { return 2; } virtual ~A() {} };
class B : public A { public: virtual int f() { return 3; } };
int helper(A* p) { delete p; return p->f(); }
int main() {
	A* p = new B();
	int s = 0;
` + strings.Repeat("\ts = s + p->f();\n", n) + strings.Repeat("\tdelete p;\n", n) + `
	s = s + p->g() + helper(p);
	return s;
}
`
	r := frontend.Compile(frontend.Source{Name: "dup.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{CHA, RTA} {
		b := build(r.Program, r.Graph, Options{Mode: mode})
		a := r.Program.ClassByName["A"]
		var sites []string
		for _, s := range b.sitesAt[a] {
			sites = append(sites, s.caller.Name+":"+s.method.Name)
		}
		sort.Strings(sites)
		if got := strings.Join(sites, " "); got != "helper:f main:f main:g" {
			t.Errorf("%s: virtual sites at A = %q, want one per (caller, method)", mode, got)
		}
		var dtors []string
		for _, caller := range b.dtorsAt[a] {
			dtors = append(dtors, caller.Name)
		}
		sort.Strings(dtors)
		if got := strings.Join(dtors, " "); got != "helper main" {
			t.Errorf("%s: delete sites at A = %q, want one per caller", mode, got)
		}
		if len(b.sitesAt) != 1 || len(b.dtorsAt) != 1 {
			t.Errorf("%s: sites indexed at %d classes and deletes at %d, want only A", mode, len(b.sitesAt), len(b.dtorsAt))
		}
	}
}
