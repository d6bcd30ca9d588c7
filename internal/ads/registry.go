// Package ads implements stream advertisements: nodes advertise the base
// and derived streams (outputs of deployed operators) they host, and
// coordinators aggregate these up the hierarchy. Advertisements are what
// make operator reuse visible to the planners — a derived stream can feed
// a new query with no additional cost for transporting or recomputing its
// input data.
package ads

import (
	"cmp"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hnp/internal/netgraph"
	"hnp/internal/obs"
	"hnp/internal/query"
)

// Ad advertises one derived stream: the output of a deployed operator (or
// a delivered sink stream) materialized at a node.
type Ad struct {
	// Sig is the canonical signature of the joined base streams.
	Sig string
	// Streams are the base streams combined by the advertised operator.
	Streams []query.StreamID
	// Node is where the stream is materialized.
	Node netgraph.NodeID
	// Rate is the expected output rate.
	Rate float64
	// QueryID records which query's deployment created the stream.
	QueryID int
	// Preds are the predicates the advertised operator was computed
	// under; a stricter query can reuse the stream through a residual
	// filter (query containment).
	Preds query.PredSet
	// ProjSig is the projection fragment of the advertising query over the
	// covered streams ("" when full tuples are shipped). Reuse requires an
	// exact match: a column-pruned stream cannot feed a query that needs
	// the dropped columns, and a full-width stream must not be conflated
	// with a pruned one when pricing reuse.
	ProjSig string
}

// Registry indexes advertisements by base stream set: the part of Ad.Sig
// before the predicate ("#") and projection ("%") fragments keys a bucket
// holding every ad over exactly those streams, in advertise order. A query
// over K sources can only be fed by ads over its multi-stream subsets, so
// a lookup probes at most 2^K-K-1 buckets and its cost follows K and the
// matches, not Len. The zero value is not usable; create with NewRegistry.
// A Registry is internally locked: any number of goroutines may advertise,
// retract and look up concurrently, so planners can consult the registry
// while other deployments advertise into it.
type Registry struct {
	mu      sync.RWMutex
	buckets map[string][]Ad // never holds an empty bucket
	count   int
	dropped int // buckets deleted since buckets was last rebuilt

	// Telemetry handles (nil until BindObs; all nil-safe no-ops then).
	obsAdvertised *obs.Counter
	obsDuplicates *obs.Counter
	obsLookups    *obs.Counter
	obsScanned    *obs.Counter
	obsOffered    *obs.Counter
	obsPruned     *obs.Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{buckets: map[string][]Ad{}} }

// baseLen returns the length of a signature's bucket key: its base stream
// set, which ends where the predicate ("#") or projection ("%") fragment
// starts.
func baseLen[S string | []byte](sig S) int {
	for i := 0; i < len(sig); i++ {
		if sig[i] == '#' || sig[i] == '%' {
			return i
		}
	}
	return len(sig)
}

// baseOf returns the bucket key of a signature.
func baseOf(sig string) string { return sig[:baseLen(sig)] }

// BindObs connects the registry to a telemetry registry: advertisement
// counts ("ads.advertised", "ads.duplicates", "ads.pruned") and lookup
// activity are recorded there — "ads.lookups" (InputsFor calls: one per
// query a Top-Down, Bottom-Up or optimal search plans; Lookup is not
// counted), "ads.scanned" (ads examined inside the probed buckets)
// and "ads.reuse_offered" (ads that survived every check), so
// offered/scanned is the live share of lookup work that was useful. Reuse
// hit/miss outcomes are a planning-level judgement and are recorded by
// the deployment layer (see hnp.System), not here.
func (r *Registry) BindObs(reg *obs.Registry) {
	r.obsAdvertised = reg.Counter("ads.advertised")
	r.obsDuplicates = reg.Counter("ads.duplicates")
	r.obsLookups = reg.Counter("ads.lookups")
	r.obsScanned = reg.Counter("ads.scanned")
	r.obsOffered = reg.Counter("ads.reuse_offered")
	r.obsPruned = reg.Counter("ads.pruned")
}

// setBucket stores what remains of a bucket after a retraction, counting
// the retracted ads in ads.pruned: the vacated tail of the old slice is
// zeroed, so the retracted ads'
// predicate sets, stream slices and signature strings become collectable,
// and a bucket left empty is dropped. Once more buckets have been dropped
// than twice the number left, the map is rebuilt.
func (r *Registry) setBucket(key string, old, kept []Ad) {
	clear(old[len(kept):])
	if len(kept) == 0 {
		delete(r.buckets, key)
		if r.dropped++; r.dropped > 2*len(r.buckets) { // a clone drops the room deleted keys kept
			r.buckets, r.dropped = maps.Clone(r.buckets), 0
		}
	} else {
		r.buckets[key] = kept
	}
	r.count -= len(old) - len(kept)
	r.obsPruned.Add(int64(len(old) - len(kept)))
}

// Prune retracts every advertisement the keep predicate rejects and
// returns how many were removed. It visits every ad, so churn does not
// use it: RetractPlan retracts one deployment's own ads and Retract one
// stopped stream, each without the scan. Its callers filter a whole
// registry by owner at once: engine.Engine.Replan withholds a query's
// own ads from a clone, and the benchmark's twin retracts an undeployed
// query's.
func (r *Registry) Prune(keep func(Ad) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	before := r.count
	for key, list := range r.buckets {
		kept := list[:0]
		for _, ad := range list {
			if keep(ad) {
				kept = append(kept, ad)
			}
		}
		if len(kept) < len(list) {
			r.setBucket(key, list, kept)
		}
	}
	return before - r.count
}

// Advertise records an ad. A duplicate (same signature at the same node)
// is ignored, matching the one-time advertisement semantics of the paper.
// It reports whether the ad was new. InputsFor finds an ad through its
// bucket, so Sig's base must be the canonical signature of Streams.
func (r *Registry) Advertise(ad Ad) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := baseOf(ad.Sig)
	list, ok := r.buckets[key]
	for i := range list {
		if list[i].Node == ad.Node && list[i].Sig == ad.Sig {
			r.obsDuplicates.Inc()
			return false
		}
	}
	if !ok && len(key) < len(ad.Sig) {
		// The key outlives this ad when the bucket gains others; do not
		// let it pin the longer signature it was cut from.
		key = strings.Clone(key)
	}
	r.buckets[key] = append(list, ad)
	r.count++
	r.obsAdvertised.Inc()
	return true
}

// Len returns the number of stored advertisements.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// Clone returns an independent copy of the registry: every bucket is
// copied into a fresh slice, in advertise order, because setBucket clears
// the tail of the slice it prunes and must never reach the other copy's.
// Telemetry handles are not copied.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Registry{buckets: make(map[string][]Ad, len(r.buckets)), count: r.count}
	for key, list := range r.buckets {
		c.buckets[key] = slices.Clone(list)
	}
	return c
}

// Lookup returns all ads with the given signature, in advertise order.
// The result is a copy, safe to hold while other goroutines advertise.
func (r *Registry) Lookup(sig string) []Ad {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Ad
	for _, ad := range r.buckets[baseOf(sig)] {
		if ad.Sig == sig {
			out = append(out, ad)
		}
	}
	return out
}

// All returns every ad, ordered by signature then node, for deterministic
// iteration.
func (r *Registry) All() []Ad {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Ad, 0, r.count)
	for _, list := range r.buckets {
		out = append(out, list...)
	}
	slices.SortFunc(out, func(a, b Ad) int {
		return cmp.Or(strings.Compare(a.Sig, b.Sig), cmp.Compare(a.Node, b.Node))
	})
	return out
}

// InputsFor converts the ads usable by query q into planner inputs:
// every ad whose stream set is a subset of q's sources, covering at least
// two positions (single-stream ads duplicate base inputs), whose
// projection equals the query's over those streams, and whose predicates
// contain the query's — exact-match reuse and containment-based reuse through a
// residual filter applied at the producing node. Rates are taken from the
// query's rate table (which already reflects the query's own predicates)
// so reuse and fresh computation are costed consistently. The result is
// ordered by ad signature, then node, whatever the advertise order.
//
// Each multi-stream sub-mask of q probes the one bucket that can hold
// its ads; the predicate and projection fragments the checks compare
// against are computed once per sub-mask, and only for buckets that hold a
// candidate. A lookup that matches nothing allocates nothing.
func (r *Registry) InputsFor(q *query.Query, rt query.RateTable) []query.Input {
	// Source positions by ascending stream ID: the order signatures list
	// streams in.
	var orderBuf [query.MaxSources]int
	order := orderBuf[:0]
	for p := range q.Sources {
		order = append(order, p)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(q.Sources[a], q.Sources[b]) })

	type match struct {
		adSig string
		in    query.Input
	}
	var matches []match
	var keyBuf [64]byte
	scanned := 0
	r.mu.RLock()
	for m := query.Mask(3); m <= q.All(); m++ {
		if m.Count() < 2 {
			continue
		}
		key := keyBuf[:0]
		for _, p := range order {
			if m.Has(p) {
				if len(key) > 0 {
					key = append(key, '|')
				}
				key = strconv.AppendInt(key, int64(q.Sources[p]), 10)
			}
		}
		list := r.buckets[string(key)]
		scanned += len(list)
		var frag query.Fragment
		for i := range list {
			ad := &list[i]
			if am, ok := q.MaskOf(ad.Streams); !ok || am != m {
				continue // hand-built ad whose Streams disagree with its Sig
			}
			if frag.Sig == "" {
				frag = q.Fragment(m)
			}
			if ad.ProjSig != frag.ProjSig || !ad.Preds.Contains(frag.Preds) {
				continue
			}
			in := query.Input{Mask: m, Rate: rt.Rate(m), Loc: ad.Node, Derived: true, Sig: frag.Sig}
			if !ad.Preds.Equal(frag.Preds) {
				// Strict containment: the reused stream is filtered at the
				// producing node before shipping.
				in.BaseSig = ad.Sig
			}
			matches = append(matches, match{ad.Sig, in})
		}
	}
	r.mu.RUnlock()
	r.obsLookups.Inc()
	r.obsScanned.Add(int64(scanned))
	r.obsOffered.Add(int64(len(matches)))
	if len(matches) == 0 {
		return nil
	}
	slices.SortFunc(matches, func(a, b match) int {
		return cmp.Or(strings.Compare(a.adSig, b.adSig), cmp.Compare(a.in.Loc, b.in.Loc))
	})
	out := make([]query.Input, len(matches))
	for i := range matches {
		out[i] = matches[i].in
	}
	return out
}

// AdvertisePlan records derived-stream ads for every operator of a
// deployed plan (reused subtrees are already advertised and are skipped by
// the duplicate check). It returns the number of new ads.
func (r *Registry) AdvertisePlan(q *query.Query, root *query.PlanNode) int {
	added := 0
	for _, op := range root.Operators() {
		if op.IsUnary() {
			// Aggregated outputs are terminal summaries, not reusable join
			// inputs.
			continue
		}
		f := q.Fragment(op.Mask)
		ad := Ad{
			Sig:     f.Sig,
			Streams: f.Streams,
			Node:    op.Loc,
			Rate:    op.Rate,
			QueryID: q.ID,
			Preds:   f.Preds,
			ProjSig: f.ProjSig,
		}
		if r.Advertise(ad) {
			added++
		}
	}
	return added
}

// RetractPlan is the mirror of AdvertisePlan: it retracts the ads that
// advertising root for q created — for every operator, the ad with the
// operator's signature at its node, if q owns it — and returns how many
// were removed. Ads the plan merely reused, and operators that lost the
// duplicate check to an earlier deployment, belong to other queries and
// stay. Each operator probes the bucket it was advertised under, so the
// cost follows the plan, not Len. It allocates nothing.
func (r *Registry) RetractPlan(q *query.Query, root *query.PlanNode) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	before := r.count
	r.retract(q, root)
	return before - r.count
}

// retract visits op's operators in the post-order Operators lists them
// in, without building that list. A signature is appended into a stack
// buffer and compared, never kept as a string.
func (r *Registry) retract(q *query.Query, op *query.PlanNode) {
	if op == nil || op.IsLeaf() {
		return
	}
	r.retract(q, op.L)
	r.retract(q, op.R)
	if op.IsUnary() {
		return
	}
	var sigBuf [128]byte
	remove(r, q.AppendSig(sigBuf[:0], op.Mask), op.Loc, q)
}

// Retract retracts the ad with signature sig at node, whoever owns it:
// the stream stopped existing there. It probes one bucket and allocates
// nothing.
func (r *Registry) Retract(sig string, node netgraph.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	remove(r, sig, node, nil)
}

// remove retracts the ad with signature sig at node if owner, or any
// query when owner is nil, owns it. It probes the one bucket the ad was
// advertised under. The caller holds the write lock.
func remove[S string | []byte](r *Registry, sig S, node netgraph.NodeID, owner *query.Query) {
	list := r.buckets[string(sig[:baseLen(sig)])]
	for i := range list {
		if ad := &list[i]; ad.Node == node && ad.Sig == string(sig) && (owner == nil || ad.QueryID == owner.ID) {
			// The key is cut from a string the ad already holds.
			r.setBucket(baseOf(ad.Sig), list, append(list[:i], list[i+1:]...))
			return
		}
	}
}
