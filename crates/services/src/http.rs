//! The HTTP server of §5.4: parses requests, fetches files from the
//! cache server, optionally encrypts through the AES server, and replies.
//!
//! This is the three-server chain of Figure 8(c): the message crosses
//! client → HTTP → file cache (→ AES) → client, which is where the
//! handover optimization pays: "using handover can efficiently reduce
//! the times of memory copying in these IPC".

use crate::aes::AesServer;
use crate::filecache::FileCache;
use simos::{Step, World};

/// Service index of the client in the [`chain_steps`] recipe.
pub const SVC_CLIENT: usize = 0;
/// Service index of the HTTP server.
pub const SVC_HTTP: usize = 1;
/// Service index of the file-cache server.
pub const SVC_CACHE: usize = 2;
/// Service index of the AES server.
pub const SVC_AES: usize = 3;
/// Number of services in the chain recipe (client included).
pub const CHAIN_SERVICES: usize = 4;

/// A parsed HTTP request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (only GET is served).
    pub method: String,
    /// Request path.
    pub path: String,
}

/// Parse the request line of an HTTP/1.x request.
pub(crate) fn parse_request(raw: &str) -> Option<Request> {
    let line = raw.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    Some(Request { method, path })
}

/// HTTP response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 404.
    NotFound,
    /// 400.
    BadRequest,
}

impl Status {
    fn line(self) -> &'static str {
        match self {
            Status::Ok => "HTTP/1.1 200 OK",
            Status::NotFound => "HTTP/1.1 404 Not Found",
            Status::BadRequest => "HTTP/1.1 400 Bad Request",
        }
    }
}

/// The HTTP server with its downstream servers.
#[derive(Debug)]
pub struct HttpServer {
    /// File cache server.
    pub cache: FileCache,
    /// Optional AES server (the paper's encryption-enabled mode).
    pub aes: Option<AesServer>,
    /// Requests served.
    pub served: u64,
}

impl HttpServer {
    /// A server over `cache`, optionally encrypting with `aes`.
    pub fn new(cache: FileCache, aes: Option<AesServer>) -> Self {
        HttpServer {
            cache,
            aes,
            served: 0,
        }
    }

    /// Handle one raw request end-to-end, charging every hop:
    /// client→HTTP (request), HTTP→cache (path / file back),
    /// HTTP→AES round trip when enabled, HTTP→client (response).
    ///
    /// With a handover-capable mechanism the *payload* rides one relay
    /// segment through the whole chain, so only the first hop carries it;
    /// copy mechanisms pay per hop (that is inherent in how their
    /// [`simos::IpcSystem::oneway_into`] prices payload bytes).
    pub fn handle(&mut self, w: &mut World, raw_request: &str) -> (Status, Vec<u8>) {
        // Client → HTTP server.
        w.ipc_oneway(raw_request.len() as u64);
        w.compute(200); // request parsing
        let req = match parse_request(raw_request) {
            Some(r) if r.method == "GET" => r,
            _ => {
                let body = b"bad request".to_vec();
                w.ipc_oneway(body.len() as u64);
                self.served += 1;
                return (Status::BadRequest, body);
            }
        };
        // HTTP → file cache server.
        w.ipc_roundtrip(req.path.len() as u64, 0);
        let file = self.cache.get(w, &req.path);
        let (status, mut body) = match file {
            Some(data) => {
                // The file body travels back as the reply payload.
                w.ipc_reply_payload(data.len() as u64);
                (Status::Ok, data)
            }
            None => {
                let body = b"not found".to_vec();
                w.ipc_reply_payload(body.len() as u64);
                (Status::NotFound, body)
            }
        };
        // HTTP → AES server, if encryption is on.
        if let Some(aes) = self.aes.as_mut() {
            w.ipc_roundtrip_payload(body.len() as u64);
            aes.encrypt(w, &mut body);
        }
        // HTTP → client: status line + headers + body.
        let header = format!(
            "{}\r\nContent-Length: {}\r\n\r\n",
            status.line(),
            body.len()
        );
        w.compute(150); // response assembly
        w.ipc_oneway(header.len() as u64 + body.len() as u64);
        self.served += 1;
        (status, body)
    }
}

/// Figure 8(c) driver: serve `requests` GETs for `path` and return the
/// throughput in operations per second under the world's mechanism.
///
/// # Errors
///
/// The status of the first response that is not [`Status::Ok`] (say,
/// [`Status::NotFound`] for a `path` the server does not hold).
pub fn http_throughput_ops(
    w: &mut World,
    server: &mut HttpServer,
    path: &str,
    requests: u64,
) -> Result<f64, Status> {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let start = w.cycles;
    for _ in 0..requests {
        match server.handle(w, &raw) {
            (Status::Ok, _) => {}
            (status, _) => return Err(status),
        }
    }
    let cycles = w.cycles - start;
    let secs = cycles as f64 / w.cost.clock_hz as f64;
    Ok(requests as f64 / secs)
}

/// Options for the §5.4 chain recipe ([`chain_steps`]), replacing the
/// former positional bool pair.
///
/// The default is the paper's headline configuration: encryption on
/// (the full three-server chain of Figure 8(c)), handover off (the
/// conservative copy pricing — opt in per mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Route the file through the AES server (Figure 8(c)'s
    /// encryption-enabled mode).
    pub encrypt: bool,
    /// Price payload legs as relay-segment handovers (16-byte control
    /// descriptors instead of the file body). Must match
    /// `supports_handover()` of the system the steps will run on — the
    /// chain's control-reply shortcuts depend on it.
    pub handover: bool,
}

impl Default for ChainSpec {
    fn default() -> Self {
        ChainSpec {
            encrypt: true,
            handover: false,
        }
    }
}

impl ChainSpec {
    /// The same spec with `handover` matched to a mechanism.
    pub fn with_handover(self, handover: bool) -> Self {
        ChainSpec { handover, ..self }
    }
}

/// The [`HttpServer::handle`] chain as a placement-agnostic recipe: the
/// exact sequence of hops and compute a successful `GET path` charges,
/// attributed to [`SVC_CLIENT`]/[`SVC_HTTP`]/[`SVC_CACHE`]/[`SVC_AES`],
/// for replay on a [`simos::MultiWorld`] under any placement policy.
///
/// The anchoring test below pins this recipe to `handle()`
/// cycle-for-cycle on a single core.
pub fn chain_steps(path: &str, file_len: u64, spec: ChainSpec) -> Vec<Step> {
    let ChainSpec { encrypt, handover } = spec;
    let raw_len = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").len() as u64;
    let header_len = format!(
        "{}\r\nContent-Length: {}\r\n\r\n",
        Status::Ok.line(),
        file_len
    )
    .len() as u64;
    let reply = if handover { 16 } else { file_len };
    let mut steps = vec![
        Step::Oneway {
            from: SVC_CLIENT,
            to: SVC_HTTP,
            bytes: raw_len,
        },
        Step::Compute {
            at: SVC_HTTP,
            cycles: 200,
        },
        Step::Roundtrip {
            from: SVC_HTTP,
            to: SVC_CACHE,
            request: path.len() as u64,
            response: 0,
        },
        Step::Compute {
            at: SVC_CACHE,
            cycles: 120,
        },
        Step::DataPass {
            at: SVC_CACHE,
            bytes: file_len,
            intensity_x10: 10,
        },
        Step::Oneway {
            from: SVC_CACHE,
            to: SVC_HTTP,
            bytes: reply,
        },
    ];
    if encrypt {
        let leg = if handover { 16 } else { file_len };
        steps.push(Step::Roundtrip {
            from: SVC_HTTP,
            to: SVC_AES,
            request: leg,
            response: leg,
        });
        steps.push(Step::DataPass {
            at: SVC_AES,
            bytes: file_len,
            intensity_x10: 25,
        });
    }
    steps.push(Step::Compute {
        at: SVC_HTTP,
        cycles: 150,
    });
    steps.push(Step::Oneway {
        from: SVC_HTTP,
        to: SVC_CLIENT,
        bytes: header_len + file_len,
    });
    steps
}

/// World extensions used by the chain: payload-bearing replies and
/// chain hops that a handover mechanism carries for free.
trait ChainIpc {
    fn ipc_reply_payload(&mut self, bytes: u64);
    fn ipc_roundtrip_payload(&mut self, bytes: u64);
}

impl ChainIpc for World {
    /// A reply carrying `bytes` of payload. Under handover the payload
    /// already sits in the relay segment — only a control reply is paid.
    fn ipc_reply_payload(&mut self, bytes: u64) {
        if self.handover() {
            self.ipc_oneway(16);
        } else {
            self.ipc_oneway(bytes);
        }
    }

    /// A downstream round trip whose payload continues along the chain.
    fn ipc_roundtrip_payload(&mut self, bytes: u64) {
        if self.handover() {
            self.ipc_roundtrip(16, 16);
        } else {
            self.ipc_roundtrip(bytes, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase};

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
            out.charge(Phase::Trap, 1);
            0
        }
    }

    fn server(aes: bool) -> HttpServer {
        let mut cache = FileCache::new();
        cache.put("/index.html", b"<html><body>42</body></html>".to_vec());
        let aes = aes.then(|| AesServer::new(b"0123456789abcdef"));
        HttpServer::new(cache, aes)
    }

    #[test]
    fn a_path_the_server_lacks_is_an_error_not_a_panic() {
        let mut w = World::new(Box::new(Free));
        let ops = http_throughput_ops(&mut w, &mut server(false), "/index.html", 3);
        assert!(ops.is_ok_and(|ops| ops > 0.0));
        let missing = http_throughput_ops(&mut w, &mut server(false), "/missing", 3);
        assert_eq!(missing, Err(Status::NotFound));
    }

    #[test]
    fn parses_request_lines() {
        let r = parse_request("GET /a/b.html HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/a/b.html");
        assert!(parse_request("garbage").is_none());
        assert!(parse_request("GET /x NOTHTTP").is_none());
    }

    #[test]
    fn serves_200_and_404() {
        let mut w = simos::World::new(Box::new(Free));
        let mut s = server(false);
        let (st, body) = s.handle(&mut w, "GET /index.html HTTP/1.1\r\n\r\n");
        assert_eq!(st, Status::Ok);
        assert_eq!(body, b"<html><body>42</body></html>");
        let (st, _) = s.handle(&mut w, "GET /missing HTTP/1.1\r\n\r\n");
        assert_eq!(st, Status::NotFound);
        let (st, _) = s.handle(&mut w, "POST /index.html HTTP/1.1\r\n\r\n");
        assert_eq!(st, Status::BadRequest);
        assert_eq!(s.served, 3);
    }

    #[test]
    fn encryption_mode_really_encrypts() {
        let mut w = simos::World::new(Box::new(Free));
        let mut s = server(true);
        let (st, body) = s.handle(&mut w, "GET /index.html HTTP/1.1\r\n\r\n");
        assert_eq!(st, Status::Ok);
        assert_ne!(body, b"<html><body>42</body></html>");
        // Decrypt with the same key/nonce to verify integrity.
        let aes = Aes128::new(b"0123456789abcdef");
        let mut plain = body.clone();
        aes.ctr_xor(0, &mut plain);
        assert_eq!(plain, b"<html><body>42</body></html>");
    }

    #[test]
    fn chain_steps_is_anchored_to_handle() {
        // The recipe must price exactly what `handle()` charges — for a
        // copying system and a handover system, with and without AES.
        // Replay on a 1-core MultiWorld (no cross-core surcharge) must
        // land on the same cycle count as the real server.
        use kernels::{Sel4, Sel4Transfer, XpcIpc};
        use simos::load::run_windowed;
        use simos::{LoadGen, MultiWorld, Placement};

        let path = "/index.html";
        let file = b"<html><body>42</body></html>".to_vec();
        let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");

        type Mk = fn() -> Box<dyn IpcSystem>;
        let mks: [Mk; 2] = [
            || Box::new(Sel4::new(Sel4Transfer::OneCopy)),
            || Box::new(XpcIpc::sel4_xpc()),
        ];
        for mk in mks {
            for encrypt in [false, true] {
                let mut w = simos::World::new(mk());
                let mut cache = FileCache::new();
                cache.put(path, file.clone());
                let aes = encrypt.then(|| AesServer::new(b"0123456789abcdef"));
                let mut s = HttpServer::new(cache, aes);
                let (st, _) = s.handle(&mut w, &raw);
                assert_eq!(st, Status::Ok);

                let handover = mk().supports_handover();
                let spec = ChainSpec { encrypt, handover };
                let steps = chain_steps(path, file.len() as u64, spec);
                let mut mw = MultiWorld::builder().cores(1).build(mk);
                let one = LoadGen {
                    clients: 1,
                    requests: 1,
                    ..LoadGen::default()
                };
                let r = run_windowed(
                    &mut mw,
                    &Placement::SameCore,
                    CHAIN_SERVICES,
                    &[steps],
                    &one,
                    1,
                );
                assert_eq!(
                    r.makespan_cycles, w.cycles,
                    "recipe diverged from handle() (handover={handover}, aes={encrypt})"
                );
                // The request ledger carries the IPC phases only —
                // compute lands in the clock, exactly as in `World`.
                assert_eq!(r.ledger.total(), w.stats.ipc_cycles);
            }
        }
    }

    #[test]
    fn encryption_costs_cycles() {
        let mut w1 = simos::World::new(Box::new(Free));
        let mut s1 = server(false);
        s1.handle(&mut w1, "GET /index.html HTTP/1.1\r\n\r\n");
        let mut w2 = simos::World::new(Box::new(Free));
        let mut s2 = server(true);
        s2.handle(&mut w2, "GET /index.html HTTP/1.1\r\n\r\n");
        assert!(w2.cycles > w1.cycles);
    }
}
