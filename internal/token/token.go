// Package token defines the lexical token kinds of MC++, the C++ subset
// analyzed by this repository, together with keyword and operator tables
// shared by the lexer and parser.
package token

import "fmt"

// Kind identifies a lexical token class. It is a byte, so a lexer token
// (a position, a length and a kind) packs into 16 bytes.
type Kind uint8

// Token kinds. Layout mirrors go/token: literals, operators, keywords.
const (
	Invalid Kind = iota
	EOF

	literalBeg
	Ident     // foo
	IntLit    // 123
	CharLit   // 'a'
	FloatLit  // 1.5
	StringLit // "abc"
	literalEnd

	operatorBeg
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %

	Amp      // &
	Pipe     // |
	Caret    // ^
	Shl      // <<
	Shr      // >>
	AmpAmp   // &&
	PipePipe // ||
	Not      // !
	Tilde    // ~

	Assign        // =
	PlusAssign    // +=
	MinusAssign   // -=
	StarAssign    // *=
	SlashAssign   // /=
	PercentAssign // %=

	Eq // ==
	Ne // !=
	Lt // <
	Gt // >
	Le // <=
	Ge // >=

	Inc // ++
	Dec // --

	Arrow     // ->
	ArrowStar // ->*
	Dot       // .
	DotStar   // .*
	Scope     // ::

	Question  // ?
	Colon     // :
	Semicolon // ;
	Comma     // ,

	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	operatorEnd

	keywordBeg
	KwBool
	KwBreak
	KwCase
	KwChar
	KwClass
	KwConst
	KwContinue
	KwDelete
	KwDefault
	KwDo
	KwDouble
	KwElse
	KwFalse
	KwFor
	KwIf
	KwInt
	KwNew
	KwNullptr
	KwPrivate
	KwProtected
	KwPublic
	KwReturn
	KwSizeof
	KwStatic
	KwStruct
	KwSwitch
	KwThis
	KwTrue
	KwUnion
	KwVirtual
	KwVoid
	KwVolatile
	KwWhile
	keywordEnd
)

// kindNames holds each kind's printable name; the range sentinels
// (literalBeg, …) have none.
var kindNames = [keywordEnd]string{
	Invalid: "INVALID",
	EOF:     "EOF",

	Ident:     "identifier",
	IntLit:    "integer literal",
	CharLit:   "character literal",
	FloatLit:  "floating literal",
	StringLit: "string literal",

	Plus:    "+",
	Minus:   "-",
	Star:    "*",
	Slash:   "/",
	Percent: "%",

	Amp:      "&",
	Pipe:     "|",
	Caret:    "^",
	Shl:      "<<",
	Shr:      ">>",
	AmpAmp:   "&&",
	PipePipe: "||",
	Not:      "!",
	Tilde:    "~",

	Assign:        "=",
	PlusAssign:    "+=",
	MinusAssign:   "-=",
	StarAssign:    "*=",
	SlashAssign:   "/=",
	PercentAssign: "%=",

	Eq: "==",
	Ne: "!=",
	Lt: "<",
	Gt: ">",
	Le: "<=",
	Ge: ">=",

	Inc: "++",
	Dec: "--",

	Arrow:     "->",
	ArrowStar: "->*",
	Dot:       ".",
	DotStar:   ".*",
	Scope:     "::",

	Question:  "?",
	Colon:     ":",
	Semicolon: ";",
	Comma:     ",",

	LParen:   "(",
	RParen:   ")",
	LBrace:   "{",
	RBrace:   "}",
	LBracket: "[",
	RBracket: "]",

	KwBool:      "bool",
	KwBreak:     "break",
	KwCase:      "case",
	KwChar:      "char",
	KwClass:     "class",
	KwConst:     "const",
	KwContinue:  "continue",
	KwDelete:    "delete",
	KwDefault:   "default",
	KwDo:        "do",
	KwDouble:    "double",
	KwElse:      "else",
	KwFalse:     "false",
	KwFor:       "for",
	KwIf:        "if",
	KwInt:       "int",
	KwNew:       "new",
	KwNullptr:   "nullptr",
	KwPrivate:   "private",
	KwProtected: "protected",
	KwPublic:    "public",
	KwReturn:    "return",
	KwSizeof:    "sizeof",
	KwStatic:    "static",
	KwStruct:    "struct",
	KwSwitch:    "switch",
	KwThis:      "this",
	KwTrue:      "true",
	KwUnion:     "union",
	KwVirtual:   "virtual",
	KwVoid:      "void",
	KwVolatile:  "volatile",
	KwWhile:     "while",
}

// String returns a printable name for the kind: the operator spelling,
// keyword text, or a description for literal classes.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsLiteral reports whether the kind is an identifier or literal.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether the kind is an operator or punctuation.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether the kind is a reserved word.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

// keywordsByFirst lists, for each lower-case letter, the keywords that
// begin with it.
var keywordsByFirst = func() (t [26][]Kind) {
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		c := kindNames[k][0] - 'a'
		t[c] = append(t[c], k)
	}
	return t
}()

// LookupKeyword returns the keyword kind for ident, or Ident if it is not a
// reserved word. The lexer calls it on every identifier, so it hashes
// nothing: it compares ident only with the keywords that share its first
// byte (at most five), and a length mismatch settles most comparisons.
func LookupKeyword(ident string) Kind {
	if len(ident) < 2 || ident[0] < 'a' || ident[0] > 'z' {
		return Ident
	}
	for _, k := range keywordsByFirst[ident[0]-'a'] {
		if kindNames[k] == ident {
			return k
		}
	}
	return Ident
}

// Keywords returns all keyword spellings, in Kind order.
func Keywords() []string {
	return append([]string(nil), kindNames[keywordBeg+1:keywordEnd]...)
}

// Precedence returns the binary-operator precedence of k (higher binds
// tighter), or 0 if k is not a binary operator handled by precedence
// climbing. Assignment and ?: are handled separately by the parser.
func (k Kind) Precedence() int {
	switch k {
	case PipePipe:
		return 1
	case AmpAmp:
		return 2
	case Pipe:
		return 3
	case Caret:
		return 4
	case Amp:
		return 5
	case Eq, Ne:
		return 6
	case Lt, Gt, Le, Ge:
		return 7
	case Shl, Shr:
		return 8
	case Plus, Minus:
		return 9
	case Star, Slash, Percent:
		return 10
	}
	return 0
}

// IsAssignOp reports whether k is '=' or a compound assignment operator.
func (k Kind) IsAssignOp() bool {
	switch k {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign:
		return true
	}
	return false
}

// CompoundBase returns the underlying arithmetic operator of a compound
// assignment (e.g. PlusAssign -> Plus). For plain Assign it returns Invalid.
func (k Kind) CompoundBase() Kind {
	switch k {
	case PlusAssign:
		return Plus
	case MinusAssign:
		return Minus
	case StarAssign:
		return Star
	case SlashAssign:
		return Slash
	case PercentAssign:
		return Percent
	}
	return Invalid
}
