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
pub fn encode_query(params: &[(&str, &str)]) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{}={}", encode_component(k), encode_component(v)))
        .collect::<Vec<_>>()
        .join("&")
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
