//! The §5.4 web-server chain: HTTP server → file cache server → AES
//! server, with the message handed over along the chain (Figure 8c).
//! Every byte is really served and really encrypted (AES-128-CTR).
//!
//! ```text
//! cargo run --release --example http_chain
//! ```

use xpc_repro::kernels::{XpcIpc, Zircon};
use xpc_repro::services::aes::{Aes128, AesServer};
use xpc_repro::services::filecache::FileCache;
use xpc_repro::services::http::{http_throughput_ops, HttpServer, Status};
use xpc_repro::simos::{IpcSystem, World};

fn build_server(encrypt: bool) -> HttpServer {
    let mut cache = FileCache::new();
    cache.put(
        "/index.html",
        b"<html><body>XPC reproduction</body></html>".repeat(40),
    );
    let aes = encrypt.then(|| AesServer::new(b"0123456789abcdef"));
    HttpServer::new(cache, aes)
}

fn main() {
    // First, one real request end to end, to show the chain working.
    let mut w = World::new(Box::new(XpcIpc::zircon_xpc()));
    let mut srv = build_server(true);
    let (status, body) = srv.handle(&mut w, "GET /index.html HTTP/1.1\r\nHost: demo\r\n\r\n");
    assert_eq!(status, Status::Ok);
    let mut plain = body.clone();
    Aes128::new(b"0123456789abcdef").ctr_xor(0, &mut plain);
    println!(
        "served {} encrypted bytes; decrypted prefix: {:?}...\n",
        body.len(),
        String::from_utf8_lossy(&plain[..30])
    );

    // Then the Figure 8(c) sweep.
    println!(
        "{:<20} {:>14} {:>14} {:>9}",
        "configuration", "Zircon ops/s", "XPC ops/s", "speedup"
    );
    for encrypt in [false, true] {
        let mechs: [(&str, Box<dyn IpcSystem>); 2] = [
            ("Zircon", Box::new(Zircon::new())),
            ("Zircon-XPC", Box::new(XpcIpc::zircon_xpc())),
        ];
        let mut ops = Vec::new();
        for (_, m) in mechs {
            let mut w = World::new(m);
            let mut srv = build_server(encrypt);
            ops.push(
                http_throughput_ops(&mut w, &mut srv, "/index.html", 100)
                    .expect("the server holds /index.html"),
            );
        }
        println!(
            "{:<20} {:>14.0} {:>14.0} {:>8.1}x",
            if encrypt { "with AES" } else { "no encryption" },
            ops[0],
            ops[1],
            ops[1] / ops[0]
        );
    }
    println!("\npaper: ~10x with encryption, ~12x without (handover keeps");
    println!("the payload in one relay segment across the whole chain)");
}
