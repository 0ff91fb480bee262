package lexer_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"deadmembers/internal/bench"
	"deadmembers/internal/lexer"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

func scanAll(name, text string) []lexer.Token {
	fset := source.NewFileSet()
	f := fset.AddFile(name, text)
	return lexer.ScanAll(f, source.NewDiagnosticList(fset))
}

// TestScanAllCapacityBounded: the token slice is presized by projection,
// never to more than twice the tokens it holds.
func TestScanAllCapacityBounded(t *testing.T) {
	for _, classes := range []int{25, 400, 1600} {
		src, _ := bench.Generate(bench.Spec{
			Name: "cap", Classes: classes, UsedClasses: classes * 3 / 4,
			Members: classes * 4, DeadPercent: 10,
			Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
			Seed: uint64(classes),
		})
		toks := scanAll("cap.mcc", src)
		if toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("%d classes: stream does not end with EOF", classes)
		}
		if cap(toks) > 2*len(toks) {
			t.Errorf("%d classes: cap %d > 2 × len %d", classes, cap(toks), len(toks))
		}
	}
}

// TestScanAllSparseSource: a source with few tokens gets a small slice,
// however long it is — one 1 MiB comment is one token (EOF), and a
// dense head before that comment is not projected over its length.
func TestScanAllSparseSource(t *testing.T) {
	comment := "/*" + strings.Repeat("x", 1<<20) + "*/"
	if toks := scanAll("comment.mcc", comment); len(toks) != 1 || cap(toks) > 2 {
		t.Errorf("comment-only file: len %d cap %d, want one EOF token in a small slice", len(toks), cap(toks))
	}
	head := strings.Repeat("a ", 300)
	toks := scanAll("head.mcc", head+comment)
	if len(toks) != 301 || cap(toks) > 2*len(toks) {
		t.Errorf("dense head then comment: len %d cap %d, want 301 tokens, cap at most twice that", len(toks), cap(toks))
	}
}

// TestTokenCompact: a token is 16 bytes of plain integers, so a token
// slice holds no pointer for the garbage collector to scan.
func TestTokenCompact(t *testing.T) {
	if n := unsafe.Sizeof(lexer.Token{}); n != 16 {
		t.Errorf("Token is %d bytes, want 16", n)
	}
	typ := reflect.TypeOf(lexer.Token{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("Token.%s is a %s, want a plain integer", f.Name, f.Type.Kind())
		}
	}
}

// TestScanAllAllocs: lexing the 3,200-class scaling program allocates
// only the token slice's few growth steps, nothing per token.
func TestScanAllAllocs(t *testing.T) {
	src, _ := bench.Generate(bench.Spec{
		Name: "scale", Classes: 3200, UsedClasses: 2400,
		Members: 12800, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: 3200,
	})
	fset := source.NewFileSet()
	f := fset.AddFile("scale.mcc", src)
	diags := source.NewDiagnosticList(fset)
	var toks []lexer.Token
	allocs := testing.AllocsPerRun(2, func() { toks = lexer.ScanAll(f, diags) })
	if diags.HasErrors() || len(toks) < 100_000 {
		t.Fatalf("%d tokens, errors:\n%v", len(toks), diags)
	}
	if allocs > 10 {
		t.Errorf("lexing %d tokens allocates %v times, want at most 10", len(toks), allocs)
	}
}
