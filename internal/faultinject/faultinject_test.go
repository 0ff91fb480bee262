package faultinject

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"deadmembers/internal/persist"
)

func TestInjectorDeterministic(t *testing.T) {
	roll := func() []bool {
		in := New(42, 0.3)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.Fault(KindReadEIO))
		}
		return out
	}
	a, b := roll(), roll()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs between identical seeds", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.3 produced %d/%d hits", hits, len(a))
	}
	in := New(42, 0.3)
	for i := 0; i < 200; i++ {
		in.Fault(KindReadEIO)
	}
	if got := in.Counts()[KindReadEIO]; got != int64(hits) {
		t.Errorf("counts = %d, want %d", got, hits)
	}
}

func TestInjectorRateBounds(t *testing.T) {
	off := New(1, 0)
	on := New(1, 1)
	for i := 0; i < 50; i++ {
		if off.Fault(KindWriteENOSPC) {
			t.Fatal("rate 0 fired")
		}
		if !on.Fault(KindWriteENOSPC) {
			t.Fatal("rate 1 missed")
		}
	}
	var nilInj *Injector
	if nilInj.Fault(KindWriteENOSPC) {
		t.Error("nil injector fired")
	}
}

// TestFaultFSCorruptionIsAlwaysDetected drives a persist.Store through a
// fault-injecting filesystem at a brutal rate and asserts the store's
// core invariant: a Get either returns the exact bytes that were Put, or
// a miss — never corrupt data, never a panic.
func TestFaultFSCorruptionIsAlwaysDetected(t *testing.T) {
	dir := t.TempDir()
	in := New(7, 0.25)
	store, err := persist.Open(dir, persist.Options{FS: FS(persist.OSFS{}, in)})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("%064d", i%8) }
	body := func(i int) string { return fmt.Sprintf("artifact body %d", i%8) }
	for i := 0; i < 400; i++ {
		store.Put(key(i), "text/plain", []byte(body(i))) // errors expected under chaos
		got, _, ok := store.Get(key(i))
		if ok && string(got) != body(i) {
			t.Fatalf("iteration %d: served corrupt body %q, want %q", i, got, body(i))
		}
	}
	st := store.Stats()
	if st.ServedCorrupt != 0 {
		t.Fatalf("served corrupt = %d, want 0", st.ServedCorrupt)
	}
	if in.Total() == 0 {
		t.Fatal("chaos layer injected nothing at rate 0.25")
	}
	// The store must remain openable (and only serve valid records)
	// after all that abuse, like a daemon restarting on a damaged disk.
	store2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	for i := 0; i < 8; i++ {
		if got, _, ok := store2.Get(key(i)); ok && string(got) != body(i) {
			t.Fatalf("after reopen: corrupt body %q for key %d", got, i)
		}
	}
}

func TestFaultFSErrorKinds(t *testing.T) {
	dir := t.TempDir()
	in := New(3, 1) // every site fires
	ffs := FS(persist.OSFS{}, in)
	if _, err := ffs.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, syscall.EIO) {
		t.Errorf("ReadFile err = %v, want EIO", err)
	}
	if err := ffs.WriteFile(filepath.Join(dir, "y"), []byte("data")); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("WriteFile err = %v, want ENOSPC", err)
	}
}

func TestFaultFSTornRename(t *testing.T) {
	dir := t.TempDir()
	in := New(5, 1)
	// Only the torn-rename site can fire: do the write with the real FS.
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	full := (&persist.Record{Key: strings.Repeat("ab", 16), ContentType: "t", Body: []byte("full body")}).Encode()
	if err := os.WriteFile(src, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FS(persist.OSFS{}, in).Rename(src, dst); err != nil {
		t.Fatalf("torn rename must report success, got %v", err)
	}
	torn, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(full) {
		t.Fatalf("rename was not torn: %d bytes survived of %d", len(torn), len(full))
	}
	if _, err := persist.Decode(torn); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("torn record decoded: err = %v, want ErrCorrupt", err)
	}
}

// TestNoProductionImport holds the package to its promise: no non-test
// Go file outside it imports it, so no build of a command can inject a
// fault.
func TestNoProductionImport(t *testing.T) {
	const self = "deadmembers/internal/faultinject"
	root := filepath.Join("..", "..")
	own := filepath.Join(root, "internal", "faultinject")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == own || path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s; only tests may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d non-test Go files under %s; the walk is not covering the module", files, root)
	}
}
