package token

import "testing"

func TestKindClasses(t *testing.T) {
	if !Ident.IsLiteral() || !IntLit.IsLiteral() || !StringLit.IsLiteral() {
		t.Error("literal kinds misclassified")
	}
	if !Plus.IsOperator() || !ArrowStar.IsOperator() || !Scope.IsOperator() {
		t.Error("operator kinds misclassified")
	}
	if !KwClass.IsKeyword() || !KwVolatile.IsKeyword() {
		t.Error("keyword kinds misclassified")
	}
	if EOF.IsLiteral() || EOF.IsOperator() || EOF.IsKeyword() {
		t.Error("EOF should belong to no class")
	}
}

func TestLookupKeyword(t *testing.T) {
	if LookupKeyword("class") != KwClass {
		t.Error("class should be a keyword")
	}
	if LookupKeyword("classy") != Ident {
		t.Error("classy should be an identifier")
	}
	for _, kw := range Keywords() {
		if LookupKeyword(kw) == Ident {
			t.Errorf("keyword %q not resolvable", kw)
		}
	}
	if n := len(Keywords()); n != int(keywordEnd-keywordBeg-1) {
		t.Errorf("keyword table has %d entries, want %d", n, keywordEnd-keywordBeg-1)
	}
}

// TestLookupKeywordExact: every keyword resolves to its own kind, and
// near misses (prefixes, extensions, other case, other first bytes) are
// identifiers.
func TestLookupKeywordExact(t *testing.T) {
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		if got := LookupKeyword(k.String()); got != k {
			t.Errorf("LookupKeyword(%q) = %s, want %s", k.String(), got, k)
		}
	}
	for _, s := range []string{"", "d", "i", "dou", "doubles", "Class", "INT", "_if", "x", "whileX", "protect", "z", "ifx"} {
		if got := LookupKeyword(s); got != Ident {
			t.Errorf("LookupKeyword(%q) = %s, want identifier", s, got)
		}
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// Multiplication binds tighter than addition, which binds tighter
	// than comparison, etc.
	chains := [][]Kind{
		{PipePipe, AmpAmp, Pipe, Caret, Amp, Eq, Lt, Shl, Plus, Star},
	}
	for _, chain := range chains {
		for i := 0; i+1 < len(chain); i++ {
			if chain[i].Precedence() >= chain[i+1].Precedence() {
				t.Errorf("%s (%d) should bind looser than %s (%d)",
					chain[i], chain[i].Precedence(), chain[i+1], chain[i+1].Precedence())
			}
		}
	}
	if Assign.Precedence() != 0 || Question.Precedence() != 0 {
		t.Error("assignment and ?: are not precedence-climbed")
	}
}

func TestAssignOps(t *testing.T) {
	for _, k := range []Kind{Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign} {
		if !k.IsAssignOp() {
			t.Errorf("%s should be an assignment operator", k)
		}
	}
	if Eq.IsAssignOp() {
		t.Error("== is not an assignment operator")
	}
	pairs := map[Kind]Kind{
		PlusAssign: Plus, MinusAssign: Minus, StarAssign: Star,
		SlashAssign: Slash, PercentAssign: Percent,
	}
	for compound, base := range pairs {
		if compound.CompoundBase() != base {
			t.Errorf("%s base = %s, want %s", compound, compound.CompoundBase(), base)
		}
	}
	if Assign.CompoundBase() != Invalid {
		t.Error("plain = has no compound base")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[Kind]string{
		ArrowStar: "->*", DotStar: ".*", Scope: "::", Shl: "<<",
		KwSizeof: "sizeof", Ident: "identifier",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d renders %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(250).String() != "Kind(250)" {
		t.Error("unknown kind should render a placeholder")
	}
}
