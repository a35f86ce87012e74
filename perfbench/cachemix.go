package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/core"
	"libra/internal/task"
	"libra/internal/topology"
)

// cacheMix is the cache-tier workload: two closed-loop connections (one
// per core of the reference host) against a working set four times the
// default 512-entry LRU — 2048 evaluate keys and 48 optimize keys, all
// posted during set-up. The measured stream is 87% Zipf-drawn repeats
// (memory or disk hits), 10% fresh evaluates (compute, disk append, LRU
// eviction) and 3% repeats carrying If-None-Match (the 304 path), so the
// HTTP layer, envelope parse, fingerprinting, spec build, both cache
// tiers and JSON encoding do the work while the solver idles.
//
// The working set is held in popularity order, and a key's (topology,
// workload) pair is fixed by its rank: the few hottest keys carry a tenth
// of the traffic, so letting the seed pick their problem shapes would
// move the per-request cost between seeds. Seeds vary budgets,
// bandwidths and the request sequence.
type cacheMix struct {
	seed  int64
	cat   *catalog
	bases []cacheBase // one per feasible (topology, workload) pair
	keys  []cacheKey  // the working set, by Zipf rank
	z     *zipf
	first []response // each key's answer from the last set-up
}

const (
	evalKeys     = 2048
	optKeys      = 48
	zipfExponent = 1.1
	freshShare   = 0.10
	condShare    = 0.03
)

// cacheBase is the problem an evaluate key prices bandwidths for.
type cacheBase struct {
	spec *core.ProblemSpec
	fp   string
	dims int
}

// cacheKey is one working-set request.
type cacheKey struct {
	body   []byte
	fp     string
	bw     topology.BWConfig // nil for optimize keys
	engine string            // the engine's cache key for the request
	spec   *core.ProblemSpec
}

func newCacheMix(seed int64, cat *catalog) (*cacheMix, error) {
	r := newRNG(seed, 0)
	w := &cacheMix{seed: seed, cat: cat}
	for _, c := range cat.combos {
		spec := &core.ProblemSpec{Topology: c.topo, Workloads: []core.WorkloadSpec{{Preset: c.preset}},
			BudgetGBps: round3(200 + 800*r.float())}
		fp, err := spec.Fingerprint()
		if err != nil {
			return nil, err
		}
		w.bases = append(w.bases, cacheBase{spec: spec, fp: fp, dims: cat.nets[c.topo].dims})
	}
	// Optimize keys sit at every optEvery-th rank from optFirst.
	const optEvery, optFirst = (evalKeys + optKeys) / optKeys, 21
	var nEval, nOpt int
	for rank := 0; rank < evalKeys+optKeys; rank++ {
		if rank%optEvery == optFirst && nOpt < optKeys {
			c := cat.combos[nOpt%len(cat.combos)]
			nOpt++
			spec := &core.ProblemSpec{Topology: c.topo, Workloads: []core.WorkloadSpec{{Preset: c.preset}},
				BudgetGBps: round3(200 + 800*r.float())}
			fp, err := spec.Fingerprint()
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(task.NewOptimize(spec))
			if err != nil {
				return nil, err
			}
			w.keys = append(w.keys, cacheKey{body: body, fp: fp, engine: "optimize|" + fp, spec: spec})
			continue
		}
		b := &w.bases[nEval%len(w.bases)]
		nEval++
		w.keys = append(w.keys, w.evalKey(b, randomBW(r, b.dims, b.spec.BudgetGBps)))
	}
	w.z = newZipf(len(w.keys), zipfExponent)
	return w, nil
}

// evalKey builds an evaluate request; engine mirrors the key
// core.Engine.Evaluate derives, which the traced run uses to tell
// disk-tier hits from memory hits.
func (w *cacheMix) evalKey(b *cacheBase, bw topology.BWConfig) cacheKey {
	body, err := json.Marshal(task.NewEvaluate(b.spec, bw))
	if err != nil {
		panic(err) // a generated spec always marshals
	}
	var key strings.Builder
	key.WriteString("evaluate|" + b.fp)
	for _, v := range bw {
		key.WriteString("|" + strconv.FormatFloat(v, 'g', 17, 64))
	}
	return cacheKey{body: body, fp: b.fp, bw: bw, engine: key.String(), spec: b.spec}
}

func (w *cacheMix) clients() int { return 2 }
func (w *cacheMix) setups() int  { return 3 }

// prepare posts the whole working set over both connections.
func (w *cacheMix) prepare(ctx context.Context, cs []*client) error {
	first := make([]response, len(w.keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(w.keys) {
					return
				}
				res, err := c.post(ctx, "/v2/tasks", w.keys[k].body, "", http.StatusOK)
				if err != nil {
					errs[ci] = fmt.Errorf("working-set key %d: %w", k, err)
					return
				}
				first[k] = res
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.first = first
	return nil
}

// verifyPrepared checks every set-up answer: the spec's fingerprint, an
// ETag, and for evaluates the requested bandwidths echoed back. The
// optimize answers (the only solved designs this workload serves) give
// the gains over EqualBW.
func (w *cacheMix) verifyPrepared() (attempted, failed int, gains []float64) {
	for k, res := range w.first {
		attempted++
		if err := w.checkFresh(&w.keys[k], res); err != nil {
			failed++
			continue
		}
		if w.keys[k].bw == nil {
			g, err := optimizeGain(w.keys[k].spec, res.body)
			if err != nil {
				failed++
				continue
			}
			gains = append(gains, g)
		}
	}
	return attempted, failed, gains
}

// optimizeGain is an optimize answer's gain over the EqualBW design.
func optimizeGain(spec *core.ProblemSpec, body []byte) (float64, error) {
	var er core.EngineResult
	if err := json.Unmarshal(body, &er); err != nil {
		return 0, err
	}
	p, err := spec.Build()
	if err != nil {
		return 0, err
	}
	eq, err := p.EqualBW()
	if err != nil {
		return 0, err
	}
	return objective(p, eq) / objective(p, er.Result), nil
}

// checkFresh verifies a first answer for a key.
func (w *cacheMix) checkFresh(k *cacheKey, res response) error {
	var er core.EngineResult
	if err := json.Unmarshal(res.body, &er); err != nil {
		return wrongf("undecodable answer: %v", err)
	}
	if er.Fingerprint != k.fp {
		return wrongf("fingerprint %s, want %s", er.Fingerprint, k.fp)
	}
	if res.etag == "" {
		return wrongf("no ETag")
	}
	if k.bw != nil {
		if len(er.Result.BW) != len(k.bw) {
			return wrongf("evaluated %v, asked for %v", er.Result.BW, k.bw)
		}
		for d := range k.bw {
			if er.Result.BW[d] != k.bw[d] {
				return wrongf("evaluated %v, asked for %v", er.Result.BW, k.bw)
			}
		}
	}
	if !(er.Result.WeightedTime > 0) || !(er.Result.Cost > 0) {
		return wrongf("non-positive time or cost")
	}
	return nil
}

// cacheOp is one generated measured-phase request: a fresh evaluate
// (key == -1, fresh set) or a repeat of working-set key, conditional or
// not.
type cacheOp struct {
	key   int
	cond  bool
	fresh *cacheKey
}

func (w *cacheMix) gen(i int) cacheOp {
	r := newRNG(w.seed, uint64(i)+1)
	u := r.float()
	if u < freshShare {
		b := &w.bases[r.intn(len(w.bases))]
		k := w.evalKey(b, randomBW(r, b.dims, b.spec.BudgetGBps))
		return cacheOp{key: -1, fresh: &k}
	}
	return cacheOp{key: w.z.draw(r.float()), cond: u < freshShare+condShare}
}

func (w *cacheMix) request(i int) []byte {
	op := w.gen(i)
	if op.fresh != nil {
		return op.fresh.body
	}
	if op.cond {
		return append([]byte("If-None-Match\x00"), w.keys[op.key].body...)
	}
	return w.keys[op.key].body
}

func (w *cacheMix) op(ctx context.Context, c *client, i int) *outcome {
	op := w.gen(i)
	o := &outcome{i: i}
	var body []byte
	var etag string
	if op.fresh != nil {
		body, o.engineKey = op.fresh.body, op.fresh.engine
	} else {
		body, o.engineKey = w.keys[op.key].body, w.keys[op.key].engine
		if op.cond {
			etag = w.first[op.key].etag
		}
	}
	start := time.Now()
	res, err := c.do(ctx, http.MethodPost, "/v2/tasks", body, reqID(i), etag)
	o.lat = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	switch {
	case op.fresh != nil:
		if res.status != http.StatusOK {
			o.err = statusError(res)
		} else {
			o.err = w.checkFresh(op.fresh, res)
		}
	case op.cond:
		first := w.first[op.key]
		switch {
		case res.status != http.StatusNotModified:
			o.err = wrongf("conditional repeat: status %d, want 304", res.status)
		case len(res.body) != 0:
			o.err = wrongf("304 with a %d-byte body", len(res.body))
		case res.etag != first.etag:
			o.err = wrongf("304 ETag %s, first answer's %s", res.etag, first.etag)
		}
		o.cached = true
	default:
		if res.status != http.StatusOK {
			o.err = statusError(res)
			return o
		}
		o.cached, o.err = sameAnswer(w.first[op.key].body, res.body)
	}
	return o
}

var cachedTrue = []byte(`"cached": true`)

// sameAnswer reports whether a repeat's result and fingerprint are
// byte-identical to the key's first answer, and whether the engine said
// it served the repeat from a cache. The fast path compares the bytes
// before the "cached" field, which hold exactly result and fingerprint
// in the server's field order; anything else falls back to decoding.
func sameAnswer(first, again []byte) (cached bool, err error) {
	cached = bytes.Contains(again, cachedTrue)
	if a, b := answerPrefix(first), answerPrefix(again); a != nil && b != nil {
		if !bytes.Equal(a, b) {
			return cached, wrongf("repeat differs from the first answer")
		}
		return cached, nil
	}
	type answer struct {
		Result      json.RawMessage `json:"result"`
		Fingerprint string          `json:"fingerprint"`
		Cached      bool            `json:"cached"`
	}
	var a, b answer
	if err := json.Unmarshal(first, &a); err != nil {
		return false, wrongf("undecodable first answer: %v", err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		return false, wrongf("undecodable repeat: %v", err)
	}
	if !bytes.Equal(a.Result, b.Result) || a.Fingerprint != b.Fingerprint {
		return b.Cached, wrongf("repeat differs from the first answer")
	}
	return b.Cached, nil
}

// answerPrefix returns the body up to its "cached" field when that
// prefix holds both the result and the fingerprint, else nil.
func answerPrefix(body []byte) []byte {
	i := bytes.Index(body, []byte(`"cached"`))
	if i < 0 {
		return nil
	}
	p := body[:i]
	if !bytes.Contains(p, []byte(`"result"`)) || !bytes.Contains(p, []byte(`"fingerprint"`)) {
		return nil
	}
	return p
}
