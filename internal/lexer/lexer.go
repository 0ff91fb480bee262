// Package lexer implements the hand-written scanner for MC++ source text.
//
// The scanner produces a stream of tokens with positions resolvable against
// the source.File it was created from. It recognizes line and block
// comments, character/string escapes, and all multi-character operators of
// the subset, including the C++-specific `->*`, `.*` and `::`.
package lexer

import (
	"slices"

	"deadmembers/internal/source"
	"deadmembers/internal/token"
)

// Token is a single lexical token: its kind and its source span. It holds
// no text and no pointer, so a token is 16 bytes and the garbage collector
// never scans a token slice; Text slices a token's spelling from its file
// on demand.
type Token struct {
	Pos  source.Pos // first byte
	Len  int32      // length in bytes, 0 for EOF; files are capped at source.MaxFileSize
	Kind token.Kind
}

// Text returns the token's spelling in f, the file it was scanned from.
func (t Token) Text(f *source.File) string {
	off := f.Offset(t.Pos)
	return f.Content()[off : off+int(t.Len)]
}

// lexer scans a single source file.
type lexer struct {
	file  *source.File
	src   string
	off   int
	diags *source.DiagnosticList
}

// firstTokens is ScanAll's initial capacity, before any density is known.
const firstTokens = 256

// ScanAll scans the entire file and returns all tokens, ending with EOF.
//
// The slice grows by projection instead of append's 1.25× steps: when it
// fills, the density seen so far projects the tokens still to come, and
// the slice grows by that plus an eighth, at least doubling and at most
// growing eightfold. A source whose tail is sparser than its head (one
// long comment) is copied down at EOF, so the slice never holds more
// than twice its tokens.
func ScanAll(file *source.File, diags *source.DiagnosticList) []Token {
	l := &lexer{file: file, src: file.Content(), diags: diags}
	out := make([]Token, 0, min(firstTokens, len(l.src)+1))
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, l.growth(len(out)))
		}
		t := l.next()
		out = append(out, t)
		if t.Kind == token.EOF {
			break
		}
	}
	if cap(out) > 2*len(out) {
		out = slices.Clone(out)
	}
	return out
}

// growth is how many more tokens ScanAll makes room for once n tokens
// fill its slice.
func (l *lexer) growth(n int) int {
	if l.off == 0 {
		return n
	}
	rest := n * (len(l.src) - l.off) / l.off
	return min(max(rest+rest/8, n), 7*n)
}

func (l *lexer) pos() source.Pos { return l.file.Pos(l.off) }

func (l *lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

// skipTrivia consumes whitespace and comments. Unterminated block comments
// are reported once and consume the rest of the file.
func (l *lexer) skipTrivia() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.off++
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.off += 2
			closed := false
			for l.off < len(l.src) {
				if l.src[l.off] == '*' && l.peekAt(1) == '/' {
					l.off += 2
					closed = true
					break
				}
				l.off++
			}
			if !closed {
				l.diags.Errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans and returns the next token.
func (l *lexer) next() Token {
	l.skipTrivia()
	begin, start := l.off, l.pos()
	if l.off >= len(l.src) {
		return Token{Pos: start, Kind: token.EOF}
	}
	var kind token.Kind
	switch c := l.src[l.off]; {
	case isIdentStart(c):
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.off++
		}
		kind = token.LookupKeyword(l.src[begin:l.off])
	case isDigit(c):
		kind = l.scanNumber(start)
	case c == '\'':
		l.scanChar(start)
		kind = token.CharLit
	case c == '"':
		l.scanString(start)
		kind = token.StringLit
	default:
		kind = l.scanOperator(start)
	}
	return Token{Pos: start, Len: int32(l.off - begin), Kind: kind}
}

// scanNumber consumes an integer or floating literal and returns its kind.
func (l *lexer) scanNumber(start source.Pos) token.Kind {
	begin := l.off
	kind := token.IntLit
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.off += 2
		for l.off < len(l.src) && isHexDigit(l.src[l.off]) {
			l.off++
		}
		if l.off == begin+2 {
			l.diags.Errorf(start, "malformed hexadecimal literal")
		}
		return kind
	}
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.off++
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = token.FloatLit
		l.off++
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		next := l.peekAt(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
			kind = token.FloatLit
			l.off += 2
			for l.off < len(l.src) && isDigit(l.src[l.off]) {
				l.off++
			}
		}
	}
	return kind
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanEscape consumes one (possibly escaped) character of a char/string
// literal body and returns false on malformed input.
func (l *lexer) scanEscape(start source.Pos) bool {
	if l.peek() != '\\' {
		l.off++
		return true
	}
	l.off++
	switch l.peek() {
	case 'n', 't', 'r', '0', '\\', '\'', '"':
		l.off++
		return true
	}
	if l.off >= len(l.src) {
		l.diags.Errorf(start, "backslash at end of input")
		return false
	}
	l.diags.Errorf(start, "unknown escape sequence \\%c", l.peek())
	l.off++
	return false
}

func (l *lexer) scanChar(start source.Pos) {
	l.off++ // opening quote
	if l.off >= len(l.src) {
		l.diags.Errorf(start, "unterminated character literal")
		return
	}
	l.scanEscape(start)
	if l.peek() == '\'' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated character literal")
	}
}

func (l *lexer) scanString(start source.Pos) {
	l.off++ // opening quote
	for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
		l.scanEscape(start)
	}
	if l.peek() == '"' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated string literal")
	}
}

// singleByte maps each one-byte operator or punctuator to its kind; every
// other byte maps to Invalid.
var singleByte = [256]token.Kind{
	'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
	'%': token.Percent, '&': token.Amp, '|': token.Pipe, '^': token.Caret,
	'!': token.Not, '~': token.Tilde, '=': token.Assign, '<': token.Lt,
	'>': token.Gt, '.': token.Dot, '?': token.Question, ':': token.Colon,
	';': token.Semicolon, ',': token.Comma, '(': token.LParen,
	')': token.RParen, '{': token.LBrace, '}': token.RBrace,
	'[': token.LBracket, ']': token.RBracket,
}

// doubled and withAssign map a byte to the kind of the two-byte operator
// it starts when it is repeated (`++`, `::`) or followed by `=` (`+=`,
// `==`); no byte starts both.
var (
	doubled = [256]token.Kind{
		'+': token.Inc, '-': token.Dec, '<': token.Shl, '>': token.Shr,
		'&': token.AmpAmp, '|': token.PipePipe, ':': token.Scope,
	}
	withAssign = [256]token.Kind{
		'+': token.PlusAssign, '-': token.MinusAssign, '*': token.StarAssign,
		'/': token.SlashAssign, '%': token.PercentAssign, '=': token.Eq,
		'!': token.Ne, '<': token.Le, '>': token.Ge,
	}
)

// scanOperator consumes the longest operator spelling at the cursor
// (maximal munch: `->*` before `->` before `-`) and returns its kind. A
// byte that starts no operator is reported and yields one Invalid token.
func (l *lexer) scanOperator(start source.Pos) token.Kind {
	c, c1 := l.src[l.off], l.peekAt(1)
	n, kind := 1, singleByte[c]
	switch {
	case c == '-' && c1 == '>':
		n, kind = 2, token.Arrow
		if l.peekAt(2) == '*' {
			n, kind = 3, token.ArrowStar
		}
	case c == '.' && c1 == '*':
		n, kind = 2, token.DotStar
	case c1 == c && doubled[c] != token.Invalid:
		n, kind = 2, doubled[c]
	case c1 == '=' && withAssign[c] != token.Invalid:
		n, kind = 2, withAssign[c]
	}
	if kind == token.Invalid {
		l.diags.Errorf(start, "unexpected character %q", string(c))
	}
	l.off += n
	return kind
}

// UnquoteChar decodes the body of a character literal token (including the
// surrounding quotes) to its byte value. Malformed input yields 0.
func UnquoteChar(text string) byte {
	if len(text) < 3 || text[0] != '\'' {
		return 0
	}
	body := text[1 : len(text)-1]
	return unescapeOne(body)
}

// UnquoteString decodes the body of a string literal token (including the
// surrounding quotes), resolving escape sequences.
func UnquoteString(text string) string {
	if len(text) < 2 || text[0] != '"' {
		return text
	}
	body := text[1 : len(text)-1]
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' && i+1 < len(body) {
			out = append(out, unescapeOne(body[i:i+2]))
			i++
		} else {
			out = append(out, body[i])
		}
	}
	return string(out)
}

func unescapeOne(s string) byte {
	if len(s) == 0 {
		return 0
	}
	if s[0] != '\\' {
		return s[0]
	}
	if len(s) < 2 {
		return 0
	}
	switch s[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return s[1]
}
