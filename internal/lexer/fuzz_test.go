package lexer_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/lexer"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

// Every operator spelling, listed apart from the lexer's switch: maximal
// munch over these lists, longest first, is the oracle each operator
// token must match.
var (
	oracleOps3 = []string{"->*"}
	oracleOps2 = []string{
		"->", ".*", "::", "<<", ">>", "&&", "||", "==", "!=",
		"<=", ">=", "++", "--", "+=", "-=", "*=", "/=", "%=",
	}
	oracleOps1 = "+-*/%&|^!~=<>.?:;,(){}[]"
)

// munch returns the longest oracle spelling that prefixes rest, or "".
func munch(rest string) string {
	for _, ops := range [][]string{oracleOps3, oracleOps2} {
		for _, op := range ops {
			if strings.HasPrefix(rest, op) {
				return op
			}
		}
	}
	if rest != "" && strings.IndexByte(oracleOps1, rest[0]) >= 0 {
		return rest[:1]
	}
	return ""
}

// isTrivia reports whether s holds only whitespace and comments; an
// unterminated block comment runs to the end of s.
func isTrivia(s string) bool {
	for s != "" {
		switch {
		case s[0] == ' ' || s[0] == '\t' || s[0] == '\r' || s[0] == '\n':
			s = s[1:]
		case strings.HasPrefix(s, "//"):
			i := strings.IndexByte(s, '\n')
			if i < 0 {
				return true
			}
			s = s[i:]
		case strings.HasPrefix(s, "/*"):
			i := strings.Index(s[2:], "*/")
			if i < 0 {
				return true
			}
			s = s[2+i+2:]
		default:
			return false
		}
	}
	return true
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// checkTokens holds a token stream to the lexer's invariants over src.
func checkTokens(t *testing.T, f *source.File, src string, toks []lexer.Token) {
	t.Helper()
	if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
		t.Fatalf("stream does not end with EOF")
	}
	prev := 0
	for i, tk := range toks {
		off := f.Offset(tk.Pos)
		end := off + int(tk.Len)
		if off < prev || end > len(src) || tk.Len < 0 {
			t.Fatalf("token %d (%s) spans [%d,%d): out of order or out of bounds (previous end %d, size %d)",
				i, tk.Kind, off, end, prev, len(src))
		}
		if gap := src[prev:off]; !isTrivia(gap) {
			t.Fatalf("token %d (%s): %q before it is neither whitespace nor comment", i, tk.Kind, gap)
		}
		prev = end
		if tk.Kind == token.EOF {
			if i != len(toks)-1 || off != len(src) || tk.Len != 0 {
				t.Fatalf("EOF at token %d of %d, offset %d of %d, length %d", i, len(toks), off, len(src), tk.Len)
			}
			continue
		}
		if tk.Len == 0 {
			t.Fatalf("token %d (%s) is empty", i, tk.Kind)
		}
		text, rest := tk.Text(f), src[off:]
		switch {
		case tk.Kind.IsOperator():
			if want := munch(rest); text != want || tk.Kind.String() != want {
				t.Fatalf("token %d: operator %s spelled %q at %q, maximal munch gives %q", i, tk.Kind, text, rest[:min(len(rest), 4)], want)
			}
			if strings.HasPrefix(rest, "//") || strings.HasPrefix(rest, "/*") {
				t.Fatalf("token %d: operator %q starts a comment", i, text)
			}
		case tk.Kind == token.Invalid:
			if tk.Len != 1 || munch(rest) != "" || isIdentByte(rest[0]) || rest[0] == '\'' || rest[0] == '"' {
				t.Fatalf("token %d: invalid token %q", i, text)
			}
		case tk.Kind == token.Ident || tk.Kind.IsKeyword():
			if strings.IndexFunc(text, func(r rune) bool { return r > 0x7f || !isIdentByte(byte(r)) }) >= 0 ||
				(end < len(src) && isIdentByte(src[end])) || token.LookupKeyword(text) != tk.Kind {
				t.Fatalf("token %d: %s %q is not a whole identifier", i, tk.Kind, text)
			}
		}
	}
}

// FuzzLexer: on any input the lexer terminates without panicking, and
// its tokens are ordered, disjoint and in bounds, separated only by
// whitespace and comments, with every operator the maximal munch of the
// oracle spellings.
func FuzzLexer(f *testing.F) {
	for _, dir := range []string{"../../examples/mcc", "../../testdata", "../lint/testdata"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".mcc" {
				return err
			}
			data, err := os.ReadFile(path)
			f.Add(string(data))
			return err
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add("a->*b->c.*d::e<<=>>= a---b /= /* x */ // y\n'\\q' \"s\\\"\" 0x 1.5e+3 @#$`")
	f.Add("/* unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		fset := source.NewFileSet()
		file := fset.AddFile("fuzz.mcc", src)
		checkTokens(t, file, src, lexer.ScanAll(file, source.NewDiagnosticList(fset)))
	})
}
