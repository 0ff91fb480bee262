package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

func scan(t *testing.T, src string) ([]Token, *source.File, *source.DiagnosticList) {
	t.Helper()
	fset := source.NewFileSet()
	f := fset.AddFile("t.mcc", src)
	diags := source.NewDiagnosticList(fset)
	return ScanAll(f, diags), f, diags
}

func kinds(toks []Token) []token.Kind {
	var out []token.Kind
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	toks, _, diags := scan(t, src)
	if diags.HasErrors() {
		t.Fatalf("%q: unexpected errors:\n%v", src, diags)
	}
	want = append(want, token.EOF)
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("%q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: token %d = %s, want %s", src, i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	expectKinds(t, "->* -> .* . :: << >> <= >= == != && || ++ -- += -= *= /= %=",
		token.ArrowStar, token.Arrow, token.DotStar, token.Dot, token.Scope,
		token.Shl, token.Shr, token.Le, token.Ge, token.Eq, token.Ne,
		token.AmpAmp, token.PipePipe, token.Inc, token.Dec,
		token.PlusAssign, token.MinusAssign, token.StarAssign,
		token.SlashAssign, token.PercentAssign)
}

func TestMaximalMunch(t *testing.T) {
	// a->*b must not lex as a -> * b.
	expectKinds(t, "a->*b", token.Ident, token.ArrowStar, token.Ident)
	// a--- is -- then -.
	expectKinds(t, "a---b", token.Ident, token.Dec, token.Minus, token.Ident)
	// a.*b is one operator; a . b is not.
	expectKinds(t, "x.*pm", token.Ident, token.DotStar, token.Ident)
}

func TestKeywordsVsIdents(t *testing.T) {
	expectKinds(t, "class classes virtual virtually",
		token.KwClass, token.Ident, token.KwVirtual, token.Ident)
}

func TestNumbers(t *testing.T) {
	expectKinds(t, "0 42 0x1F 1.5 2e10 3.25e-2 7", token.IntLit, token.IntLit,
		token.IntLit, token.FloatLit, token.FloatLit, token.FloatLit, token.IntLit)
	// Member access on an integer-ish context: 1.f is "1" "." "f" since f
	// is not a digit.
	expectKinds(t, "x.mn1", token.Ident, token.Dot, token.Ident)
}

func TestCharAndStringLiterals(t *testing.T) {
	toks, f, diags := scan(t, `'a' '\n' '\'' "hi" "a\"b" "tab\t"`)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors:\n%v", diags)
	}
	text := func(i int) string { return toks[i].Text(f) }
	if UnquoteChar(text(0)) != 'a' || UnquoteChar(text(1)) != '\n' || UnquoteChar(text(2)) != '\'' {
		t.Error("char literal decoding wrong")
	}
	if UnquoteString(text(3)) != "hi" || UnquoteString(text(4)) != `a"b` || UnquoteString(text(5)) != "tab\t" {
		t.Error("string literal decoding wrong")
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a // line comment\nb /* block */ c /* multi\nline */ d",
		token.Ident, token.Ident, token.Ident, token.Ident)
}

func TestLexErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"/* never closed", "unterminated block comment"},
		{`"no close`, "unterminated string"},
		{"'a", "unterminated character"},
		{"@", "unexpected character"},
		{`"\q"`, "unknown escape"},
	}
	for _, tc := range cases {
		_, _, diags := scan(t, tc.src)
		if !diags.HasErrors() || !strings.Contains(diags.String(), tc.want) {
			t.Errorf("%q: want error containing %q, got:\n%v", tc.src, tc.want, diags)
		}
	}
}

func TestPositions(t *testing.T) {
	fset := source.NewFileSet()
	f := fset.AddFile("t.mcc", "ab\n  cd")
	diags := source.NewDiagnosticList(fset)
	toks := ScanAll(f, diags)
	loc := fset.Position(toks[1].Pos)
	if loc.Line != 2 || loc.Column != 3 {
		t.Errorf("cd at %d:%d, want 2:3", loc.Line, loc.Column)
	}
}

// TestRoundTripProperty: joining token texts with spaces and re-lexing
// yields the same token kind sequence (whitespace-insensitivity).
func TestRoundTripProperty(t *testing.T) {
	base := `class C : public A { int x; void f() { x = x + 1; } };
int main() { C c; c.f(); return c.x ->* . :: 'q' "s" 1.5e3 0x2A; }`
	check := func(seed uint8) bool {
		// Insert random extra whitespace between tokens.
		fset := source.NewFileSet()
		f := fset.AddFile("a", base)
		d := source.NewDiagnosticList(fset)
		orig := ScanAll(f, d)

		var b strings.Builder
		sep := []string{" ", "\n", "\t", "  ", " \n "}
		for i, tk := range orig {
			if tk.Kind == token.EOF {
				break
			}
			b.WriteString(tk.Text(f))
			b.WriteString(sep[(int(seed)+i)%len(sep)])
		}
		fset2 := source.NewFileSet()
		f2 := fset2.AddFile("b", b.String())
		d2 := source.NewDiagnosticList(fset2)
		again := ScanAll(f2, d2)
		if len(orig) != len(again) {
			return false
		}
		for i := range orig {
			if orig[i].Kind != again[i].Kind || orig[i].Text(f) != again[i].Text(f2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestNoCrashOnArbitraryInput: the lexer must terminate and never panic
// on arbitrary byte strings.
func TestNoCrashOnArbitraryInput(t *testing.T) {
	check := func(data []byte) bool {
		fset := source.NewFileSet()
		f := fset.AddFile("fuzz", string(data))
		diags := source.NewDiagnosticList(fset)
		toks := ScanAll(f, diags)
		return len(toks) >= 1 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestUnquoteEdgeCases(t *testing.T) {
	if UnquoteChar("x") != 0 {
		t.Error("malformed char literal should decode to 0")
	}
	if UnquoteString("x") != "x" {
		t.Error("malformed string literal should pass through")
	}
	if UnquoteString(`"\0"`) != "\x00" {
		t.Error(`\0 should decode to NUL`)
	}
}
