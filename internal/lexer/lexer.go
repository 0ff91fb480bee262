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

// Token is a single lexical token with its source span and raw text.
type Token struct {
	Kind token.Kind
	Text string
	Pos  source.Pos
	End  source.Pos
}

// String renders the token for debugging.
func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return t.Kind.String() + " " + t.Text
	}
	return t.Kind.String()
}

// Lexer scans a single source file.
type Lexer struct {
	file  *source.File
	src   string
	off   int
	diags *source.DiagnosticList
}

// New returns a Lexer over file, reporting malformed input to diags.
func New(file *source.File, diags *source.DiagnosticList) *Lexer {
	return &Lexer{file: file, src: file.Content(), diags: diags}
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
	lx := New(file, diags)
	out := make([]Token, 0, min(firstTokens, len(lx.src)+1))
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, lx.growth(len(out)))
		}
		t := lx.Next()
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
func (l *Lexer) growth(n int) int {
	if l.off == 0 {
		return n
	}
	rest := n * (len(l.src) - l.off) / l.off
	return min(max(rest+rest/8, n), 7*n)
}

func (l *Lexer) pos() source.Pos { return l.file.Pos(l.off) }

func (l *Lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

// skipTrivia consumes whitespace and comments. Unterminated block comments
// are reported once and consume the rest of the file.
func (l *Lexer) skipTrivia() {
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

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipTrivia()
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: token.EOF, Pos: start, End: start}
	}
	c := l.src[l.off]
	switch {
	case isIdentStart(c):
		return l.scanIdent(start)
	case isDigit(c):
		return l.scanNumber(start)
	case c == '\'':
		return l.scanChar(start)
	case c == '"':
		return l.scanString(start)
	}
	return l.scanOperator(start)
}

func (l *Lexer) scanIdent(start source.Pos) Token {
	begin := l.off
	for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
		l.off++
	}
	text := l.src[begin:l.off]
	return Token{Kind: token.LookupKeyword(text), Text: text, Pos: start, End: l.pos()}
}

func (l *Lexer) scanNumber(start source.Pos) Token {
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
		return Token{Kind: kind, Text: l.src[begin:l.off], Pos: start, End: l.pos()}
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
	return Token{Kind: kind, Text: l.src[begin:l.off], Pos: start, End: l.pos()}
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanEscape consumes one (possibly escaped) character of a char/string
// literal body and returns false on malformed input.
func (l *Lexer) scanEscape(start source.Pos) bool {
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

func (l *Lexer) scanChar(start source.Pos) Token {
	begin := l.off
	l.off++ // opening quote
	if l.off >= len(l.src) {
		l.diags.Errorf(start, "unterminated character literal")
		return Token{Kind: token.CharLit, Text: l.src[begin:l.off], Pos: start, End: l.pos()}
	}
	l.scanEscape(start)
	if l.peek() == '\'' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated character literal")
	}
	return Token{Kind: token.CharLit, Text: l.src[begin:l.off], Pos: start, End: l.pos()}
}

func (l *Lexer) scanString(start source.Pos) Token {
	begin := l.off
	l.off++ // opening quote
	for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
		l.scanEscape(start)
	}
	if l.peek() == '"' {
		l.off++
	} else {
		l.diags.Errorf(start, "unterminated string literal")
	}
	return Token{Kind: token.StringLit, Text: l.src[begin:l.off], Pos: start, End: l.pos()}
}

// operator2 and operator3 map multi-byte operator spellings.
type opEntry struct {
	text string
	kind token.Kind
}

var operators3 = []opEntry{
	{"->*", token.ArrowStar},
}

var operators2 = []opEntry{
	{"->", token.Arrow},
	{".*", token.DotStar},
	{"::", token.Scope},
	{"<<", token.Shl},
	{">>", token.Shr},
	{"&&", token.AmpAmp},
	{"||", token.PipePipe},
	{"==", token.Eq},
	{"!=", token.Ne},
	{"<=", token.Le},
	{">=", token.Ge},
	{"++", token.Inc},
	{"--", token.Dec},
	{"+=", token.PlusAssign},
	{"-=", token.MinusAssign},
	{"*=", token.StarAssign},
	{"/=", token.SlashAssign},
	{"%=", token.PercentAssign},
}

var operators1 = map[byte]token.Kind{
	'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
	'%': token.Percent, '&': token.Amp, '|': token.Pipe, '^': token.Caret,
	'!': token.Not, '~': token.Tilde, '=': token.Assign, '<': token.Lt,
	'>': token.Gt, '.': token.Dot, '?': token.Question, ':': token.Colon,
	';': token.Semicolon, ',': token.Comma, '(': token.LParen,
	')': token.RParen, '{': token.LBrace, '}': token.RBrace,
	'[': token.LBracket, ']': token.RBracket,
}

func (l *Lexer) scanOperator(start source.Pos) Token {
	rest := l.src[l.off:]
	for _, op := range operators3 {
		if hasPrefix(rest, op.text) {
			l.off += 3
			return Token{Kind: op.kind, Text: op.text, Pos: start, End: l.pos()}
		}
	}
	for _, op := range operators2 {
		if hasPrefix(rest, op.text) {
			l.off += 2
			return Token{Kind: op.kind, Text: op.text, Pos: start, End: l.pos()}
		}
	}
	c := l.src[l.off]
	if k, ok := operators1[c]; ok {
		l.off++
		return Token{Kind: k, Text: string(c), Pos: start, End: l.pos()}
	}
	l.diags.Errorf(start, "unexpected character %q", string(c))
	l.off++
	return Token{Kind: token.Invalid, Text: string(c), Pos: start, End: l.pos()}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
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
