package cql

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"hnp/internal/netgraph"
	"hnp/internal/query"
	"hnp/internal/query/rewrite"
)

// EqSelectivity is the assumed selectivity of a string-equality predicate
// (e.g. DEPARTING = 'ATLANTA'): the literal is hashed onto a sub-range of
// this width inside the attribute's [0,1] domain, deterministically, so
// identical literals produce identical predicates (and reuse) while
// different literals land on (almost surely) disjoint ranges.
const EqSelectivity = 0.05

// Statement is a parsed continuous query, ready to instantiate against a
// sink and deploy.
type Statement struct {
	// Projection lists the selected columns ("STREAM.ATTR" or "*").
	// Every column's stream is validated against the FROM clause; the
	// rewrite pipeline turns the list into per-source column pruning.
	Projection []string
	// Star records an explicit `SELECT *`: the statement asks for full
	// tuples, which is NOT equivalent to any column list — it round-trips
	// through String() as `*` and disables column pruning.
	Star bool
	// ProjCols maps each projected stream to its selected attributes
	// (lowercased, deduplicated, in selection order). Empty for SELECT *.
	ProjCols map[query.StreamID][]string
	// Sources are the FROM streams resolved against the catalog.
	Sources []query.StreamID
	// Preds are the selection predicates from the WHERE clause.
	Preds query.PredSet
	// Contradiction marks a statement whose WHERE clause is provably
	// always-false (disjoint ranges on one attribute). Such statements
	// parse successfully — the rewrite pipeline folds them to a no-op
	// plan instead of the planner shipping tuples nobody can match.
	Contradiction bool
	// JoinConds records the equi-join conditions ("A.X=B.Y") for
	// documentation; the planner joins on the catalog's pairwise
	// selectivities.
	JoinConds []string
	// JoinAttrs maps each stream to its equi-join key attributes
	// (lowercased) — columns pruning must always keep.
	JoinAttrs map[query.StreamID][]string
	// Agg is the optional WINDOW/AGGREGATE clause.
	Agg *query.AggSpec
	// fromNames are the FROM streams' names as written (uppercased), for
	// String's round-trip rendering.
	fromNames []string
}

// Query instantiates the statement as a query with the given id,
// delivering to the sink node.
func (st *Statement) Query(id int, sink netgraph.NodeID) (*query.Query, error) {
	if st.Agg != nil {
		return query.NewQueryAgg(id, st.Sources, sink, st.Preds, *st.Agg)
	}
	return query.NewQueryPred(id, st.Sources, sink, st.Preds)
}

// Pushdown returns the statement's column and contradiction information
// in the rewrite pipeline's vocabulary.
func (st *Statement) Pushdown() rewrite.Projection {
	return rewrite.Projection{
		Star:          st.Star,
		Cols:          st.ProjCols,
		JoinAttrs:     st.JoinAttrs,
		Contradiction: st.Contradiction,
	}
}

type parser struct {
	toks    []token
	pos     int
	cat     *query.Catalog
	sources []query.StreamID
	// proj holds the projection's (STREAM, ATTR) pairs until the FROM
	// clause resolves stream names — projection parses first but can only
	// be validated afterwards.
	proj [][2]string
}

// Parse parses a SELECT statement against the catalog. Stream names are
// matched case-insensitively.
func Parse(cat *query.Catalog, input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat}
	return p.statement()
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
func (p *parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("cql: expected %s, got %s at offset %d", kw, p.peek(), p.peek().pos)
	}
	p.next()
	return nil
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	if err := p.projection(st); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	if err := p.fromClause(st); err != nil {
		return nil, err
	}
	if err := p.resolveProjection(st); err != nil {
		return nil, err
	}
	var preds []query.Pred
	if p.isKw("WHERE") {
		p.next()
		var err error
		preds, err = p.whereClause(st)
		if err != nil {
			return nil, err
		}
	}
	if p.isKw("WINDOW") {
		p.next()
		if err := p.aggClause(st); err != nil {
			return nil, err
		}
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cql: unexpected %s at offset %d", p.peek(), p.peek().pos)
	}
	ps, err := query.NewPredSet(preds...)
	if err != nil {
		// A provably-empty conjunction is a valid (if pointless) query:
		// record the contradiction for the rewrite pipeline to fold to a
		// no-op plan rather than rejecting the statement.
		if errors.Is(err, query.ErrContradiction) {
			st.Contradiction = true
			st.Preds = query.PredSet{}
			return st, nil
		}
		return nil, fmt.Errorf("cql: %w", err)
	}
	st.Preds = ps
	return st, nil
}

func (p *parser) projection(st *Statement) error {
	if p.peek().kind == tokStar {
		p.next()
		st.Projection = []string{"*"}
		st.Star = true
		return nil
	}
	for {
		stream, attr, err := p.column()
		if err != nil {
			return err
		}
		st.Projection = append(st.Projection, stream+"."+attr)
		p.proj = append(p.proj, [2]string{stream, attr})
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

// resolveProjection validates the projection against the now-parsed FROM
// clause: every projected column must name a stream the query actually
// reads. It fills ProjCols with lowercased, deduplicated attributes.
func (p *parser) resolveProjection(st *Statement) error {
	if st.Star {
		return nil
	}
	st.ProjCols = map[query.StreamID][]string{}
	for _, col := range p.proj {
		id, ok := p.cat.Lookup(col[0])
		if !ok {
			return fmt.Errorf("cql: unknown stream %q in projection", col[0])
		}
		if !p.inFrom(id) {
			return fmt.Errorf("cql: projected stream %q not in FROM", col[0])
		}
		attr := strings.ToLower(col[1])
		dup := false
		for _, a := range st.ProjCols[id] {
			if a == attr {
				dup = true
				break
			}
		}
		if !dup {
			st.ProjCols[id] = append(st.ProjCols[id], attr)
		}
	}
	return nil
}

// column parses STREAM.ATTR.
func (p *parser) column() (string, string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", "", fmt.Errorf("cql: expected column, got %s at offset %d", t, t.pos)
	}
	if p.peek().kind != tokDot {
		return "", "", fmt.Errorf("cql: expected '.', got %s at offset %d", p.peek(), p.peek().pos)
	}
	p.next()
	a := p.next()
	if a.kind != tokIdent {
		return "", "", fmt.Errorf("cql: expected attribute, got %s at offset %d", a, a.pos)
	}
	return strings.ToUpper(t.text), strings.ToUpper(a.text), nil
}

func (p *parser) fromClause(st *Statement) error {
	seen := map[query.StreamID]bool{}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return fmt.Errorf("cql: expected stream name, got %s at offset %d", t, t.pos)
		}
		name := strings.ToUpper(t.text)
		id, ok := p.cat.Lookup(name)
		if !ok {
			return fmt.Errorf("cql: unknown stream %q", t.text)
		}
		if seen[id] {
			return fmt.Errorf("cql: duplicate stream %q", t.text)
		}
		seen[id] = true
		st.Sources = append(st.Sources, id)
		st.fromNames = append(st.fromNames, name)
		p.sources = st.Sources
		if p.peek().kind != tokComma {
			return nil
		}
		p.next()
	}
}

func (p *parser) whereClause(st *Statement) ([]query.Pred, error) {
	var preds []query.Pred
	for {
		pr, err := p.condition(st)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr...)
		if !p.isKw("AND") {
			return preds, nil
		}
		p.next()
	}
}

// condition parses one WHERE term: an equi-join (A.x = B.y), a numeric
// comparison (A.x < 0.5, A.x BETWEEN a AND b) or a string equality.
func (p *parser) condition(st *Statement) ([]query.Pred, error) {
	lStream, lAttr, err := p.column()
	if err != nil {
		return nil, err
	}
	lID, ok := p.cat.Lookup(lStream)
	if !ok {
		return nil, fmt.Errorf("cql: unknown stream %q in WHERE", lStream)
	}
	if !p.inFrom(lID) {
		return nil, fmt.Errorf("cql: stream %q not in FROM", lStream)
	}

	if p.isKw("BETWEEN") {
		p.next()
		lo, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.number()
		if err != nil {
			return nil, err
		}
		return []query.Pred{{Stream: lID, Attr: strings.ToLower(lAttr), Range: query.Range{Lo: lo, Hi: hi}}}, nil
	}

	opTok := p.next()
	if opTok.kind != tokOp {
		return nil, fmt.Errorf("cql: expected operator, got %s at offset %d", opTok, opTok.pos)
	}
	rhs := p.peek()
	switch rhs.kind {
	case tokIdent: // equi-join: A.x = B.y
		if opTok.text != "=" {
			return nil, fmt.Errorf("cql: join condition must use '=', got %q", opTok.text)
		}
		rStream, rAttr, err := p.column()
		if err != nil {
			return nil, err
		}
		rID, ok := p.cat.Lookup(rStream)
		if !ok {
			return nil, fmt.Errorf("cql: unknown stream %q in WHERE", rStream)
		}
		if !p.inFrom(rID) {
			return nil, fmt.Errorf("cql: stream %q not in FROM", rStream)
		}
		if rID == lID {
			return nil, fmt.Errorf("cql: self-join conditions are not supported")
		}
		st.JoinConds = append(st.JoinConds, fmt.Sprintf("%s.%s=%s.%s", lStream, lAttr, rStream, rAttr))
		if st.JoinAttrs == nil {
			st.JoinAttrs = map[query.StreamID][]string{}
		}
		st.JoinAttrs[lID] = appendAttr(st.JoinAttrs[lID], strings.ToLower(lAttr))
		st.JoinAttrs[rID] = appendAttr(st.JoinAttrs[rID], strings.ToLower(rAttr))
		return nil, nil
	case tokString: // string equality: hashed onto a deterministic range
		if opTok.text != "=" {
			return nil, fmt.Errorf("cql: string comparison must use '=', got %q", opTok.text)
		}
		p.next()
		lo := literalOffset(rhs.text)
		return []query.Pred{{
			Stream: lID, Attr: strings.ToLower(lAttr),
			Range: query.Range{Lo: lo, Hi: lo + EqSelectivity},
		}}, nil
	case tokNumber:
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		var r query.Range
		switch opTok.text {
		case "<", "<=":
			r = query.Range{Lo: 0, Hi: v}
		case ">", ">=":
			r = query.Range{Lo: v, Hi: 1}
		case "=":
			hi := v + EqSelectivity
			if hi > 1 {
				hi = 1
				v = 1 - EqSelectivity
			}
			r = query.Range{Lo: v, Hi: hi}
		default:
			return nil, fmt.Errorf("cql: unsupported operator %q", opTok.text)
		}
		if !r.Valid() {
			return nil, fmt.Errorf("cql: comparison with %g leaves an empty/invalid range "+
				"(attribute domains are normalized to [0,1])", v)
		}
		return []query.Pred{{Stream: lID, Attr: strings.ToLower(lAttr), Range: r}}, nil
	}
	return nil, fmt.Errorf("cql: expected value or column after %q, got %s", opTok.text, rhs)
}

func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("cql: expected number, got %s at offset %d", t, t.pos)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("cql: bad number %q: %w", t.text, err)
	}
	return v, nil
}

func (p *parser) inFrom(id query.StreamID) bool {
	for _, s := range p.sources {
		if s == id {
			return true
		}
	}
	return false
}

// aggClause parses "WINDOW <seconds> AGGREGATE <fn>".
func (p *parser) aggClause(st *Statement) error {
	w, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expectKw("AGGREGATE"); err != nil {
		return err
	}
	fn := p.next()
	if fn.kind != tokIdent {
		return fmt.Errorf("cql: expected aggregate function, got %s", fn)
	}
	switch strings.ToLower(fn.text) {
	case "count", "sum", "avg", "max", "min":
	default:
		return fmt.Errorf("cql: unknown aggregate %q", fn.text)
	}
	if w <= 0 {
		return fmt.Errorf("cql: window must be positive, got %g", w)
	}
	st.Agg = &query.AggSpec{Fn: strings.ToLower(fn.text), Window: w, OutRate: 1 / w}
	return nil
}

func appendAttr(attrs []string, a string) []string {
	for _, x := range attrs {
		if x == a {
			return attrs
		}
	}
	return append(attrs, a)
}

// String renders the statement back to parseable CQL. The rendering is
// canonical over the parsed representation — `SELECT *` stays `*`
// (explicitly full tuples, never rewritten to a column list), predicates
// render as BETWEEN over their normalized ranges — and Parse(String())
// reproduces the same sources, projection, predicate set and aggregate.
func (st *Statement) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if st.Star {
		b.WriteByte('*')
	} else {
		b.WriteString(strings.Join(st.Projection, ", "))
	}
	b.WriteString(" FROM ")
	return st.render(&b)
}

// render finishes String; split out so the FROM names can be derived from
// the statement itself (stream names are not stored — the caller's
// catalog owns them), via the names recorded at parse time.
func (st *Statement) render(b *strings.Builder) string {
	b.WriteString(strings.Join(st.fromNames, ", "))
	first := true
	writeCond := func(s string) {
		if first {
			b.WriteString(" WHERE ")
			first = false
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(s)
	}
	for _, jc := range st.JoinConds {
		writeCond(strings.ReplaceAll(jc, "=", " = "))
	}
	for _, pr := range st.Preds.Preds() {
		name := st.nameOf(pr.Stream)
		writeCond(fmt.Sprintf("%s.%s BETWEEN %s AND %s",
			name, strings.ToUpper(pr.Attr),
			strconv.FormatFloat(pr.Range.Lo, 'g', -1, 64),
			strconv.FormatFloat(pr.Range.Hi, 'g', -1, 64)))
	}
	if st.Agg != nil {
		fmt.Fprintf(b, " WINDOW %s AGGREGATE %s",
			strconv.FormatFloat(st.Agg.Window, 'g', -1, 64), strings.ToUpper(st.Agg.Fn))
	}
	return b.String()
}

func (st *Statement) nameOf(id query.StreamID) string {
	for i, s := range st.Sources {
		if s == id {
			return st.fromNames[i]
		}
	}
	return fmt.Sprintf("stream-%d", id)
}

// literalOffset hashes a string literal onto [0, 1-EqSelectivity].
func literalOffset(lit string) float64 {
	h := fnv.New64a()
	h.Write([]byte(strings.ToUpper(lit)))
	frac := float64(h.Sum64()%1_000_000) / 1_000_000
	return frac * (1 - EqSelectivity)
}
