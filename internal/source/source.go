// Package source provides source-file abstractions shared by the MC++
// frontend: files, positions, spans, and diagnostics.
//
// Every token, AST node, and diagnostic produced by the toolchain carries a
// Pos that can be resolved against a File (or a FileSet) to a human-readable
// line/column location.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a compact absolute offset into a FileSet. A Pos of 0 (NoPos) means
// "no position". Positions within a file are 1-based offsets shifted by the
// file's base.
type Pos int

// NoPos is the zero Pos; it reports no location information.
const NoPos Pos = 0

// IsValid reports whether p carries position information.
func (p Pos) IsValid() bool { return p != NoPos }

// Span is a half-open source region [Start, End).
type Span struct {
	Start, End Pos
}

// IsValid reports whether the span carries position information.
func (s Span) IsValid() bool { return s.Start.IsValid() }

// File represents a single source file: its name, content, and the
// precomputed offsets of line starts, enabling O(log n) position lookup.
type File struct {
	name    string
	base    int // offset of the first byte of this file within its FileSet
	content string
	lines   []int // byte offsets of each line start, lines[0] == 0
}

// NewFile builds a File for the given name and content with base 1 (valid
// for standalone use outside a FileSet).
func NewFile(name, content string) *File {
	return newFileAt(name, content, 1)
}

func newFileAt(name, content string, base int) *File {
	f := &File{name: name, base: base, content: content}
	f.lines = append(f.lines, 0)
	for i := 0; i < len(content); i++ {
		if content[i] == '\n' {
			f.lines = append(f.lines, i+1)
		}
	}
	return f
}

// MaxFileSize bounds the size of a single source file the toolchain will
// lex and parse. Oversized files are registered (so positions resolve) but
// rejected with a diagnostic instead of being fed to the frontend.
const MaxFileSize = 16 << 20 // 16 MiB

// CheckSize returns a descriptive error when the file exceeds MaxFileSize.
func (f *File) CheckSize() error {
	if len(f.content) > MaxFileSize {
		return fmt.Errorf("file too large: %d bytes (limit %d)", len(f.content), MaxFileSize)
	}
	return nil
}

// Name returns the file's name as given to NewFile.
func (f *File) Name() string { return f.name }

// Content returns the full file content.
func (f *File) Content() string { return f.content }

// Base returns the Pos value corresponding to offset 0 in this file.
func (f *File) Base() int { return f.base }

// Size returns the length of the file content in bytes.
func (f *File) Size() int { return len(f.content) }

// Pos converts a byte offset within the file to an absolute Pos.
func (f *File) Pos(offset int) Pos { return Pos(f.base + offset) }

// Offset converts an absolute Pos back to a byte offset within the file.
func (f *File) Offset(p Pos) int { return int(p) - f.base }

// Contains reports whether p falls inside this file.
func (f *File) Contains(p Pos) bool {
	off := int(p) - f.base
	return off >= 0 && off <= len(f.content)
}

// Position resolves p to a line/column Location. Line and column are
// 1-based. If p is not valid or not in f, a zero Location is returned.
func (f *File) Position(p Pos) Location {
	if !p.IsValid() || !f.Contains(p) {
		return Location{}
	}
	off := f.Offset(p)
	// Binary search for the last line start <= off.
	i := sort.Search(len(f.lines), func(i int) bool { return f.lines[i] > off }) - 1
	return Location{File: f.name, Line: i + 1, Column: off - f.lines[i] + 1, Offset: off}
}

// LineCount returns the number of lines in the file. An empty file has one
// (empty) line.
func (f *File) LineCount() int { return len(f.lines) }

// Line returns the text of the 1-based line n without its trailing newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lines) {
		return ""
	}
	start := f.lines[n-1]
	end := len(f.content)
	if n < len(f.lines) {
		end = f.lines[n] - 1 // drop the '\n'
	}
	return f.content[start:end]
}

// CodeLineCount returns the number of non-blank, non-comment-only lines,
// the "lines of code" measure used for Table 1. Both // and /* */ comments
// are recognized; a line consisting solely of comment text or whitespace is
// not counted.
func (f *File) CodeLineCount() int {
	count := 0
	inBlock := false
	for n := 1; n <= len(f.lines); n++ {
		line := f.Line(n)
		hasCode := false
		for i := 0; i < len(line); i++ {
			if inBlock {
				if line[i] == '*' && i+1 < len(line) && line[i+1] == '/' {
					inBlock = false
					i++
				}
				continue
			}
			c := line[i]
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				// whitespace
			case c == '/' && i+1 < len(line) && line[i+1] == '/':
				i = len(line) // rest of line is comment
			case c == '/' && i+1 < len(line) && line[i+1] == '*':
				inBlock = true
				i++
			default:
				hasCode = true
			}
		}
		if hasCode {
			count++
		}
	}
	return count
}

// Location is a resolved human-readable source position.
type Location struct {
	File   string
	Line   int // 1-based
	Column int // 1-based
	Offset int // 0-based byte offset in the file
}

// IsValid reports whether the location was resolved.
func (l Location) IsValid() bool { return l.Line > 0 }

// String renders the location as "file:line:col".
func (l Location) String() string {
	if !l.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Column)
}

// FileSet holds a collection of files with disjoint Pos ranges so that a
// single Pos identifies both the file and the offset.
type FileSet struct {
	files []*File
	next  int
}

// NewFileSet returns an empty file set. The first added file gets base 1.
func NewFileSet() *FileSet { return &FileSet{next: 1} }

// AddFile registers content under name and returns the resulting File.
func (fs *FileSet) AddFile(name, content string) *File {
	f := newFileAt(name, content, fs.next)
	fs.next += len(content) + 1
	fs.files = append(fs.files, f)
	return f
}

// Files returns the registered files in registration order.
func (fs *FileSet) Files() []*File { return fs.files }

// FileFor returns the file containing p, or nil.
func (fs *FileSet) FileFor(p Pos) *File {
	if !p.IsValid() {
		return nil
	}
	i := sort.Search(len(fs.files), func(i int) bool { return fs.files[i].base > int(p) }) - 1
	if i < 0 {
		return nil
	}
	if f := fs.files[i]; f.Contains(p) {
		return f
	}
	return nil
}

// Position resolves p against the files in the set.
func (fs *FileSet) Position(p Pos) Location {
	if f := fs.FileFor(p); f != nil {
		return f.Position(p)
	}
	return Location{}
}

// TotalCodeLines sums CodeLineCount over all files in the set.
func (fs *FileSet) TotalCodeLines() int {
	total := 0
	for _, f := range fs.files {
		total += f.CodeLineCount()
	}
	return total
}

// Severity classifies a diagnostic.
type Severity int

// Diagnostic severities, in increasing order of gravity.
const (
	Note Severity = iota
	Warning
	Error
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Note:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is a single message attached to a source position.
type Diagnostic struct {
	Pos      Pos
	Severity Severity
	Message  string
}

// DiagnosticList accumulates diagnostics during a frontend phase.
type DiagnosticList struct {
	fset  *FileSet
	diags []Diagnostic
}

// NewDiagnosticList returns an empty list resolving positions against fset.
// fset may be nil, in which case positions render as offsets.
func NewDiagnosticList(fset *FileSet) *DiagnosticList {
	return &DiagnosticList{fset: fset}
}

// Add appends a diagnostic.
func (dl *DiagnosticList) Add(pos Pos, sev Severity, format string, args ...interface{}) {
	dl.diags = append(dl.diags, Diagnostic{Pos: pos, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Errorf appends an Error-severity diagnostic.
func (dl *DiagnosticList) Errorf(pos Pos, format string, args ...interface{}) {
	dl.Add(pos, Error, format, args...)
}

// Warningf appends a Warning-severity diagnostic.
func (dl *DiagnosticList) Warningf(pos Pos, format string, args ...interface{}) {
	dl.Add(pos, Warning, format, args...)
}

// All returns the accumulated diagnostics in insertion order.
func (dl *DiagnosticList) All() []Diagnostic { return dl.diags }

// Extend appends every diagnostic of other, preserving order. It lets a
// phase that ran on per-file lists (e.g. each file's lex diagnostics,
// reported when the file's parse starts) merge its output back into the
// program-wide list deterministically.
func (dl *DiagnosticList) Extend(other *DiagnosticList) {
	dl.diags = append(dl.diags, other.diags...)
}

// ErrorCount returns the number of Error-severity diagnostics.
func (dl *DiagnosticList) ErrorCount() int {
	n := 0
	for _, d := range dl.diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// HasErrors reports whether any Error-severity diagnostic was added.
func (dl *DiagnosticList) HasErrors() bool { return dl.ErrorCount() > 0 }

// Err returns an error summarizing the list if it contains errors, else nil.
func (dl *DiagnosticList) Err() error {
	if !dl.HasErrors() {
		return nil
	}
	return fmt.Errorf("%d error(s):\n%s", dl.ErrorCount(), dl.String())
}

// String renders all diagnostics, one per line.
func (dl *DiagnosticList) String() string {
	var b strings.Builder
	for _, d := range dl.diags {
		loc := "-"
		if dl.fset != nil {
			if l := dl.fset.Position(d.Pos); l.IsValid() {
				loc = l.String()
			}
		} else if d.Pos.IsValid() {
			loc = fmt.Sprintf("@%d", int(d.Pos))
		}
		fmt.Fprintf(&b, "%s: %s: %s\n", loc, d.Severity, d.Message)
	}
	return b.String()
}
