// Package ql implements a small aggregate query language so batches can be
// written as text — a step toward the paper's closing goal of "progressive
// implementations of relational algebra as well as commercial OLAP query
// languages". A statement selects one vector-query aggregate and restricts
// the domain with range predicates:
//
//	COUNT()
//	SUM(temperature) WHERE latitude BETWEEN 4 AND 11 AND altitude < 2
//	SUMSQ(salary)   WHERE age >= 25 AND age <= 40
//	SUMPROD(age, salary) WHERE dept = 3
//	SUM(temperature) WHERE altitude = 0 GROUP BY latitude(8), time(16)
//
// Multiple statements separated by ';' form a batch. Predicates on the same
// attribute intersect; attributes without predicates span their full
// domain. All comparisons are on the integer bin domain of the schema.
//
// GROUP BY expands a statement into one query per group cell: each listed
// attribute is split into buckets of the given width (default 1, i.e. one
// group per bin), intersected with the WHERE range. The expansion is the
// OLAP group-by as a batch of range-sums — exactly the workload
// Batch-Biggest-B shares I/O across.
package ql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/dataset"
	"repro/internal/query"
)

// ParseBatch parses a ';'-separated list of statements into a query batch.
// Statements with GROUP BY expand into one query per group cell.
func ParseBatch(schema *dataset.Schema, src string) (query.Batch, error) {
	var batch query.Batch
	for i, stmt := range splitStatements(src) {
		qs, err := parseStatement(schema, stmt)
		if err != nil {
			return nil, fmt.Errorf("ql: statement %d: %w", i+1, err)
		}
		batch = append(batch, qs...)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("ql: no statements")
	}
	return batch, nil
}

// CountStatements returns the number of statements ParseBatch reads from
// src: its non-blank ';'-separated segments, so a trailing ';' adds none. It
// allocates nothing, for bounding a request before it is parsed.
func CountStatements(src string) int {
	n := 0
	eachStatement(src, func(string) { n++ })
	return n
}

func splitStatements(src string) []string {
	var out []string
	eachStatement(src, func(s string) { out = append(out, s) })
	return out
}

// eachStatement calls fn on every non-blank ';'-separated segment of src, in
// order.
func eachStatement(src string, fn func(stmt string)) {
	for rest, more := src, true; more; {
		var s string
		s, rest, more = strings.Cut(rest, ";")
		if strings.TrimSpace(s) != "" {
			fn(s)
		}
	}
}

// Parse parses a single statement (without GROUP BY) into one query.
func Parse(schema *dataset.Schema, src string) (*query.Query, error) {
	qs, err := parseStatement(schema, src)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("ql: statement expands to %d queries (GROUP BY?); use ParseBatch", len(qs))
	}
	return qs[0], nil
}

func parseStatement(schema *dataset.Schema, src string) (query.Batch, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{schema: schema, toks: toks}
	qs, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("unexpected %q after statement", p.peek().text)
	}
	return qs, nil
}

// --- lexer ---

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokOp // < <= > >= =
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '-' || unicode.IsDigit(c):
			j := i + 1
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			if j == i+1 && c == '-' {
				return nil, fmt.Errorf("stray '-' at position %d", i)
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// --- parser ---

type parser struct {
	schema *dataset.Schema
	toks   []token
	pos    int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) eof() bool { return p.peek().kind == tokEOF }

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("expected %s at position %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

// groupSpec is one GROUP BY attribute: the dimension index and the bucket
// width in bins.
type groupSpec struct {
	dim   int
	width int
}

// statement := aggregate [WHERE predicates] [GROUP BY groups]
func (p *parser) statement() (query.Batch, error) {
	agg, err := p.expect(tokIdent, "aggregate name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var attrs []string
	for p.peek().kind == tokIdent {
		a := p.next()
		attrs = append(attrs, a.text)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}

	r := query.FullDomain(p.schema)
	if p.keyword("WHERE") {
		if err := p.predicates(&r); err != nil {
			return nil, err
		}
	}
	groups, err := p.groupBy()
	if err != nil {
		return nil, err
	}

	build := func(r query.Range) (*query.Query, error) {
		name := strings.ToUpper(agg.text)
		switch name {
		case "COUNT":
			if len(attrs) != 0 {
				return nil, fmt.Errorf("COUNT takes no attributes")
			}
			return query.Count(p.schema, r), nil
		case "SUM":
			if len(attrs) != 1 {
				return nil, fmt.Errorf("SUM takes exactly one attribute")
			}
			return query.Sum(p.schema, r, attrs[0])
		case "SUMSQ":
			if len(attrs) != 1 {
				return nil, fmt.Errorf("SUMSQ takes exactly one attribute")
			}
			return query.SumSquares(p.schema, r, attrs[0])
		case "SUMPROD":
			if len(attrs) != 2 {
				return nil, fmt.Errorf("SUMPROD takes exactly two attributes")
			}
			return query.SumProduct(p.schema, r, attrs[0], attrs[1])
		default:
			return nil, fmt.Errorf("unknown aggregate %q (want COUNT, SUM, SUMSQ, SUMPROD)", agg.text)
		}
	}
	return expandGroups(r, groups, build)
}

// groupBy := [GROUP BY group (',' group)*], group := ident ['(' number ')']
func (p *parser) groupBy() ([]groupSpec, error) {
	if !p.keyword("GROUP") {
		return nil, nil
	}
	if !p.keyword("BY") {
		return nil, fmt.Errorf("expected BY after GROUP at position %d", p.peek().pos)
	}
	var groups []groupSpec
	seen := map[int]bool{}
	for {
		attrTok, err := p.expect(tokIdent, "group attribute")
		if err != nil {
			return nil, err
		}
		dim, err := p.schema.AttrIndex(attrTok.text)
		if err != nil {
			return nil, err
		}
		if seen[dim] {
			return nil, fmt.Errorf("attribute %q grouped twice", attrTok.text)
		}
		seen[dim] = true
		width := 1
		if p.peek().kind == tokLParen {
			p.next()
			w, err := p.number()
			if err != nil {
				return nil, err
			}
			if w < 1 {
				return nil, fmt.Errorf("group bucket width must be positive, got %d", w)
			}
			width = w
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
		}
		groups = append(groups, groupSpec{dim: dim, width: width})
		if p.peek().kind != tokComma {
			return groups, nil
		}
		p.next()
	}
}

// expandGroups produces one query per group cell: the Cartesian product of
// width-aligned buckets along each grouped dimension, intersected with the
// WHERE range.
func expandGroups(r query.Range, groups []groupSpec, build func(query.Range) (*query.Query, error)) (query.Batch, error) {
	if len(groups) == 0 {
		q, err := build(r)
		if err != nil {
			return nil, err
		}
		return query.Batch{q}, nil
	}
	g := groups[0]
	var out query.Batch
	// Buckets aligned to multiples of width from zero, clipped to [lo,hi].
	for start := (r.Lo[g.dim] / g.width) * g.width; start <= r.Hi[g.dim]; start += g.width {
		sub := query.Range{Lo: append([]int(nil), r.Lo...), Hi: append([]int(nil), r.Hi...)}
		if start > sub.Lo[g.dim] {
			sub.Lo[g.dim] = start
		}
		if end := start + g.width - 1; end < sub.Hi[g.dim] {
			sub.Hi[g.dim] = end
		}
		qs, err := expandGroups(sub, groups[1:], build)
		if err != nil {
			return nil, err
		}
		out = append(out, qs...)
	}
	return out, nil
}

// predicates := predicate (AND predicate)*
func (p *parser) predicates(r *query.Range) error {
	for {
		if err := p.predicate(r); err != nil {
			return err
		}
		if !p.keyword("AND") {
			return nil
		}
	}
}

// predicate := ident op number | ident BETWEEN number AND number
func (p *parser) predicate(r *query.Range) error {
	attrTok, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return err
	}
	dim, err := p.schema.AttrIndex(attrTok.text)
	if err != nil {
		return err
	}
	if p.keyword("BETWEEN") {
		lo, err := p.number()
		if err != nil {
			return err
		}
		if !p.keyword("AND") {
			return fmt.Errorf("expected AND in BETWEEN at position %d", p.peek().pos)
		}
		hi, err := p.number()
		if err != nil {
			return err
		}
		return p.tighten(r, dim, lo, hi)
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return err
	}
	v, err := p.number()
	if err != nil {
		return err
	}
	size := p.schema.Sizes[dim]
	switch opTok.text {
	case "=":
		return p.tighten(r, dim, v, v)
	case "<":
		return p.tighten(r, dim, 0, v-1)
	case "<=":
		return p.tighten(r, dim, 0, v)
	case ">":
		return p.tighten(r, dim, v+1, size-1)
	case ">=":
		return p.tighten(r, dim, v, size-1)
	default:
		return fmt.Errorf("unknown operator %q", opTok.text)
	}
}

func (p *parser) number() (int, error) {
	t, err := p.expect(tokNumber, "number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %v", t.text, err)
	}
	return v, nil
}

// tighten intersects [lo,hi] into dimension dim of r, clamping to the
// domain and rejecting empty results.
func (p *parser) tighten(r *query.Range, dim, lo, hi int) error {
	if lo < 0 {
		lo = 0
	}
	if max := p.schema.Sizes[dim] - 1; hi > max {
		hi = max
	}
	if lo > r.Lo[dim] {
		r.Lo[dim] = lo
	}
	if hi < r.Hi[dim] {
		r.Hi[dim] = hi
	}
	if r.Lo[dim] > r.Hi[dim] {
		return fmt.Errorf("predicates on %q select an empty range", p.schema.Names[dim])
	}
	return nil
}
