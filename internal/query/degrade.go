package query

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/dil"
	"repro/internal/obs"
)

// Graceful degradation of the ontology path. On-demand DIL builds
// consult the ontology (OntoScore, equation (5) of the paper); when
// that dependency fails, search must not: the engine retries under
// Params.Retry, records the outcome with the circuit breaker, and —
// when the breaker is open or retries are exhausted — rebuilds the
// keyword IR-only, i.e. NS(v,w) = IRS(v,w), the plain XRANK baseline.
// Degraded lists are cached under a distinct key so that a recovered
// ontology path is not shadowed by stale IR-only entries.

// irCacheKey prefixes degraded-list cache and flight keys. The NUL
// byte cannot appear in a query keyword, so the namespaces are
// disjoint.
const irCacheKey = "\x00ir\x1f"

// versionTag namespaces cache and flight keys by delta-overlay state
// version. Lists built while a delta is live are only valid for the
// exact state they were scored against (collection statistics and
// normalization divisors move on every ingest); tagging the key makes
// entries from superseded states unreachable instead of relying on a
// racy purge.
func versionTag(v uint64) string {
	return "\x00v" + strconv.FormatUint(v, 36) + "\x1f"
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// listResilient is the on-demand build path for builders with a
// fallible ontology dependency. It returns the list, whether it is the
// IR-only degraded form, and a context error if the caller gave up. The
// sp parameter is the enclosing "query.keyword" span; this path tags it
// with how the keyword was answered (cache, built).
func (e *Engine) listResilient(ctx context.Context, sp *obs.Span, kw, tag string, fb FallibleKeywordBuilder) (dil.List, bool, error) {
	ckey := tag + kw
	if l, ok := e.cache.Get(ckey); ok {
		resolvedFrom(sp, fromCache, tag != "")
		return l, false, nil
	}
	if !e.breaker.Allow() {
		resolvedFrom(sp, fromBuilt, tag != "")
		sp.SetAttr("breaker_open", true)
		l, err := e.listIR(ctx, kw, tag)
		return l, true, err
	}
	resolvedFrom(sp, fromBuilt, tag != "")
	l, err, _ := e.flights.Do(ctx, ckey, func(fctx context.Context) (dil.List, error) {
		if l, ok := e.cache.Get(ckey); ok { // raced with another build
			return l, nil
		}
		var built dil.List
		rerr := e.retry.Do(fctx, func() error {
			var berr error
			built, berr = e.buildE(fctx, fb, kw)
			if berr != nil && !isContextErr(berr) {
				e.breaker.Failure()
			}
			return berr
		})
		if rerr != nil {
			return nil, rerr
		}
		e.breaker.Success()
		e.cache.Set(ckey, built)
		return built, nil
	})
	if err == nil {
		return l, false, nil
	}
	if isContextErr(err) {
		return nil, false, err
	}
	// Ontology path down after retries: degrade this keyword to IR-only
	// scoring rather than failing the query.
	obs.Default().WarnContext(ctx, "keyword degraded to IR-only scoring",
		"keyword", kw, "error", err.Error())
	l, ferr := e.listIR(ctx, kw, tag)
	return l, true, ferr
}

// listIR builds (and caches, under a separate key) the IR-only list of
// a keyword. Builders without an IR fallback yield no list — the
// keyword reads as absent, which is still not an error.
func (e *Engine) listIR(ctx context.Context, kw, tag string) (dil.List, error) {
	irb, ok := e.builder.(IRKeywordBuilder)
	if !ok {
		return nil, nil
	}
	ckey := irCacheKey + tag + kw
	if l, ok := e.cache.Get(ckey); ok {
		return l, nil
	}
	l, err, _ := e.flights.Do(ctx, ckey, func(fctx context.Context) (dil.List, error) {
		if l, ok := e.cache.Get(ckey); ok {
			return l, nil
		}
		l := e.buildIR(fctx, irb, kw)
		e.cache.Set(ckey, l)
		return l, nil
	})
	if err != nil && !isContextErr(err) {
		// The IR build is infallible; only context errors can surface.
		err = nil
	}
	return l, err
}
