//! E14 — §7: the small IP stack under loss.
//!
//! Content download (TCP-lite) and license fetch over links of rising
//! loss: transfers stay exact while retransmission cost grows; UDP
//! baseline shows what best-effort alone would deliver. Asserted: every
//! TCP-lite transfer and license fetch is exact, ticks and
//! retransmissions rise with loss, and the UDP delivery ratio falls
//! with loss, staying within 0.05 of the link's own `1 - loss`.

use mmsoc::report::{count, f, Table};
use netstack::fetch::{fetch, ContentServer};
use netstack::link::LinkConfig;
use netstack::tcplite::{transfer, TcpConfig};
use netstack::udp::send_datagrams;

/// Prints the download and license tables, asserts the stack's shape
/// and returns, by rising loss, the TCP-lite ticks and retransmissions
/// and the UDP delivery ratio.
pub fn run() -> [(u64, u64, f64); 5] {
    let content: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
    let mut table = Table::new(vec![
        "link loss",
        "tcp-lite exact?",
        "ticks",
        "retransmissions",
        "udp delivery ratio",
    ]);
    let losses = [0.0, 0.05, 0.1, 0.2, 0.3];
    let downloads = losses.map(|loss| {
        let link = LinkConfig::default().with_loss(loss);
        let r = transfer(&content, TcpConfig::default(), link, 15).expect("transfer");
        let datagrams: Vec<Vec<u8>> = content.chunks(512).map(<[u8]>::to_vec).collect();
        let udp = send_datagrams(&datagrams, link, 600, 16);
        assert!(
            r.data == content,
            "tcp-lite must deliver exactly at loss {loss}"
        );
        table.row(vec![
            f(loss, 2),
            "yes".to_string(),
            count(r.ticks),
            count(r.retransmissions),
            f(udp.delivery_ratio(), 3),
        ]);
        (r.ticks, r.retransmissions, udp.delivery_ratio())
    });
    println!("{table}");

    // License fetch (the DRM leg).
    let mut server = ContentServer::new();
    server.publish("license.bin", vec![0x42; 300]);
    let mut table = Table::new(vec![
        "link loss",
        "license fetched?",
        "total ticks",
        "retransmissions",
    ]);
    for loss in [0.0, 0.15, 0.3] {
        let link = LinkConfig::default().with_loss(loss);
        let r = fetch(&server, "license.bin", TcpConfig::default(), link, 17)
            .unwrap_or_else(|e| panic!("the license fetch failed at loss {loss}: {e}"));
        assert_eq!(r.data.len(), 300, "the license must arrive whole");
        table.row(vec![
            f(loss, 2),
            "true".to_string(),
            count(r.ticks),
            count(r.retransmissions),
        ]);
    }
    println!("{table}");
    println!("expected shape: tcp-lite always exact with cost rising in loss; udp decays toward the raw link rate.");
    for pair in downloads.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(a.0 < b.0 && a.1 < b.1, "cost must rise with loss");
        assert!(a.2 >= b.2, "udp must decay with loss");
    }
    for (loss, (_, _, udp)) in losses.iter().zip(downloads) {
        assert!((udp - (1.0 - loss)).abs() < 0.05, "udp is the raw link");
    }
    downloads
}
