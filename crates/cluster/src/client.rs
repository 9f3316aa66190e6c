//! Typed node-to-node calls: thin wrappers over the server crate's
//! blocking HTTP client, plus the percent-encoding needed to rebuild a
//! query string from decoded parameters.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use crate::json::Json;

/// A response from another node: status, raw body, and the body parsed
/// as JSON when it is JSON.
#[derive(Debug)]
pub struct NodeResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl NodeResponse {
    /// The body as text, lossily (for passing a node's answer through
    /// or quoting it in an error).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body borrowed as UTF-8, if it is.
    pub fn utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body parsed as JSON, if it is UTF-8 and parses.
    pub fn json(&self) -> Option<Json> {
        Json::parse(self.utf8()?).ok()
    }
}

/// Issue one request to `addr` and read the full response.
pub fn request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<NodeResponse> {
    receive(send(addr, method, path_and_query, body, timeout)?)
}

/// Send one request to `addr` without waiting for the answer; read it
/// later with [`receive`].
pub fn send(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<TcpStream> {
    tix_server::http::client_send(addr, method, path_and_query, body, timeout)
}

/// Read the full response to a request issued with [`send`].
pub fn receive(stream: TcpStream) -> io::Result<NodeResponse> {
    let (status, body) = tix_server::http::client_receive(stream)?;
    Ok(NodeResponse { status, body })
}

/// `GET` shorthand.
pub fn get(addr: &str, path_and_query: &str, timeout: Duration) -> io::Result<NodeResponse> {
    request(addr, "GET", path_and_query, &[], timeout)
}

/// Percent-encode one query-string component (strict: everything but
/// unreserved characters is escaped, so values decoded by
/// `tix_server::http` round-trip exactly — including `+`, `&`, `=` and
/// spaces inside document names or query terms).
pub fn encode_component(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for byte in value.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// Rebuild a query string (`a=1&b=two%20words`) from decoded pairs.
pub fn encode_query<V: AsRef<str>>(params: &[(&str, V)]) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{}={}", encode_component(k), encode_component(v.as_ref())))
        .collect::<Vec<_>>()
        .join("&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tix::exec::pick::PickParams;
    use tix::{ReadKind, SearchRequest};
    use tix_server::http::{read_request, Limits};
    use tix_server::read::{encode_read, parse_read, ReadRoute};

    #[test]
    fn non_utf8_body_is_not_json() {
        let response = NodeResponse {
            status: 200,
            body: b"{\"name\":\"\xff\"}".to_vec(),
        };
        assert_eq!(response.utf8(), None);
        assert_eq!(response.json(), None);
        let valid = NodeResponse {
            status: 200,
            body: "{\"name\":\"é\"}".as_bytes().to_vec(),
        };
        assert_eq!(valid.json().unwrap().get("name").unwrap().str(), Some("é"));
    }

    #[test]
    fn encoding_roundtrips_through_the_server_decoder() {
        // The server decodes `+` as space in query strings; strict
        // encoding never emits a bare `+`, so tricky names survive.
        for raw in ["a b", "a+b", "x&y=z", "ünïcode.xml", "100%"] {
            let encoded = encode_component(raw);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'-' | b'_' | b'.' | b'~' | b'%')),
                "{encoded}"
            );
        }
        assert_eq!(
            encode_query(&[("q", "rust xml"), ("k", "5")]),
            "q=rust%20xml&k=5"
        );
    }

    /// Floats that must cross the wire bit for bit: signed zeros, both
    /// infinities, NaN, and arbitrary bit patterns (NaN payloads folded
    /// to the one NaN the decimal form can carry).
    fn wire_float() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(0.5),
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits);
                if x.is_nan() {
                    f64::NAN
                } else {
                    x
                }
            }),
        ]
    }

    /// A read as the bits that must survive: terms, `k`, `ties`, the
    /// kind with Pick's parameters as raw bits, and `min_score`'s bits.
    type ReadBits = (Vec<String>, usize, bool, Option<(u64, u64)>, Option<u64>);

    fn bits(read: &SearchRequest) -> ReadBits {
        let pick = match read.kind {
            ReadKind::Terms { pick } => {
                Some((pick.relevance_threshold.to_bits(), pick.fraction.to_bits()))
            }
            ReadKind::Phrase => None,
        };
        (
            read.terms().to_vec(),
            read.k,
            read.ties,
            pick,
            read.min_score.map(f64::to_bits),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What a shard's parser reads back from the coordinator's
        /// encoding is the read the coordinator parsed.
        #[test]
        fn encoded_reads_parse_back_bit_for_bit(
            terms in prop::collection::vec("[a-zA-Z0-9&+%=#?.~éü漢-]{1,6}", 1..5),
            k in prop_oneof![Just(0usize), Just(1), Just(usize::MAX), any::<usize>()],
            threshold in wire_float(),
            fraction in wire_float(),
            min_score in prop::option::of(wire_float()),
            phrase in any::<bool>(),
            ties in any::<bool>(),
        ) {
            let (read, route) = if phrase && terms.len() >= 2 {
                (SearchRequest::phrase(&terms), ReadRoute::Phrase)
            } else {
                let pick = PickParams {
                    relevance_threshold: threshold,
                    fraction,
                };
                let mut read = SearchRequest::search(&terms, pick, k, min_score);
                read.ties = ties;
                let route = if ties { ReadRoute::ClusterSearch } else { ReadRoute::Search };
                (read, route)
            };
            let raw = format!(
                "GET /r?{} HTTP/1.1\r\n\r\n",
                encode_query(&encode_read(&read))
            );
            let request = read_request(&mut raw.as_bytes(), &Limits::default()).unwrap();
            let parsed = match parse_read(&request, route) {
                Ok(parsed) => parsed,
                Err(response) => panic!("{raw:?}: {response:?}"),
            };
            prop_assert_eq!(bits(&parsed), bits(&read));
        }
    }
}
