//! The node's one read handler: `/search`, `/phrase`, `/cluster/search`,
//! `/cluster/phrase` and `/explain` all parse into a [`SearchRequest`],
//! consult the result cache, run through [`Database::run`] and render.

use std::sync::atomic::Ordering;
use std::time::Instant;

use tix::exec::pick::PickParams;
use tix::{ReadKind, SearchRequest};

use crate::cache::QueryKey;
use crate::http::{Request, Response};
use crate::render;
use crate::server::{expired, lock_cache, read_lock, Shared};

/// The five read routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadRoute {
    /// `GET /search?q=…[&k][&threshold][&fraction][&min_score]`
    Search,
    /// `GET /phrase?q=…`
    Phrase,
    /// `GET /cluster/search?q=…[&k][&threshold][&fraction][&min_score]` —
    /// top-k with ties plus the withheld bound, for the coordinator's
    /// merge.
    ClusterSearch,
    /// `GET /cluster/phrase?q=…`
    ClusterPhrase,
    /// `GET /explain`, with `/search`'s parameters — the planner's view
    /// of the read, without running it.
    Explain,
}

impl ReadRoute {
    /// Only the client-facing reads are cached: shard answers carry the
    /// applied LSN, and EXPLAIN must reflect current statistics.
    fn cached(self) -> bool {
        matches!(self, ReadRoute::Search | ReadRoute::Phrase)
    }
}

fn bad(name: &str, raw: &str) -> Response {
    Response::error(400, &format!("bad {name} {raw:?}"))
}

/// A numeric query parameter, `default` when absent; 400 when malformed.
pub(crate) fn parse_param<T: std::str::FromStr>(
    request: &Request,
    name: &str,
    default: T,
) -> Result<T, Response> {
    match request.query_param(name) {
        Some(raw) => raw.parse().map_err(|_| bad(name, raw)),
        None => Ok(default),
    }
}

/// `k` (default 10), then the Pick parameters `threshold` and `fraction`
/// (default 0.5 each), in that order.
pub(crate) fn k_and_pick(request: &Request) -> Result<(usize, PickParams), Response> {
    let k = parse_param(request, "k", 10)?;
    let pick = PickParams {
        relevance_threshold: parse_param(request, "threshold", 0.5)?,
        fraction: parse_param(request, "fraction", 0.5)?,
    };
    Ok((k, pick))
}

/// Parse a read route's parameters, in the order the route has always
/// read them, so a malformed request gets the same first error: `q`
/// (400 when absent or without terms), then — for term reads — `k`,
/// `threshold`, `fraction` and `min_score`. Phrase routes read only `q`
/// and need two terms.
fn parse_read(request: &Request, route: ReadRoute) -> Result<SearchRequest, Response> {
    let raw = request
        .query_param("q")
        .ok_or_else(|| Response::error(400, "missing q parameter"))?;
    let terms: Vec<&str> = raw.split_whitespace().collect();
    if terms.is_empty() {
        return Err(Response::error(400, "q has no terms"));
    }
    if matches!(route, ReadRoute::Phrase | ReadRoute::ClusterPhrase) {
        if terms.len() < 2 {
            return Err(Response::error(400, "phrase needs at least two terms"));
        }
        return Ok(SearchRequest::phrase(&terms));
    }
    let (k, pick) = k_and_pick(request)?;
    let min_score = match request.query_param("min_score") {
        Some(raw) => Some(raw.parse().map_err(|_| bad("min_score", raw))?),
        None => None,
    };
    let mut read = SearchRequest::search(&terms, pick, k, min_score);
    read.ties = route == ReadRoute::ClusterSearch;
    Ok(read)
}

/// Serve one read route. A cache hit does no planning; a miss runs the
/// read with the request's deadline as its cancellation hook (504 on
/// expiry).
pub(crate) fn handle_read(
    shared: &Shared,
    request: &Request,
    route: ReadRoute,
    deadline: Instant,
) -> Response {
    let read = match parse_read(request, route) {
        Ok(read) => read,
        Err(response) => return response,
    };
    let db = read_lock(&shared.db);
    if let (ReadRoute::Explain, ReadKind::Terms { pick }) = (route, read.kind) {
        let terms: Vec<&str> = read.terms().iter().map(String::as_str).collect();
        let text = db.explain(&terms, pick, read.k, read.min_score);
        return Response::json(
            200,
            format!("{{\"explain\":{}}}", render::json_string(&text)),
        );
    }
    let generation = db.generation();
    let key = route.cached().then(|| QueryKey::of(&read, generation));
    if let Some(key) = &key {
        if let Some(body) = lock_cache(&shared.cache).get(key, generation) {
            shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::json(200, body);
        }
        shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    let Some(answer) = db.run(&read, &|| expired(deadline)) else {
        return Response::error(504, "deadline exceeded");
    };
    let store = db.store();
    let applied_lsn = shared.applied_lsn.load(Ordering::SeqCst);
    let body = match (route, read.kind) {
        (ReadRoute::Search, ReadKind::Terms { pick }) => {
            render::search_body(store, read.terms(), pick, read.k, &answer.results)
        }
        (ReadRoute::ClusterSearch, _) => {
            render::cluster_search_body(store, generation, applied_lsn, &answer)
        }
        (ReadRoute::ClusterPhrase, _) => {
            render::cluster_phrase_body(store, generation, applied_lsn, &answer.results)
        }
        _ => render::phrase_body(store, read.terms(), &answer.results),
    };
    if let Some(key) = key {
        lock_cache(&shared.cache).insert(key, body.clone());
    }
    Response::json(200, body)
}
