//! Network-front benchmark: frame-codec cost (a 64 × 16 reply and the
//! 8 × 64 `GetRows` reply of the end-to-end `read_mostly` workload, 4 156
//! bytes), the frame checksum alone (v2's byte-at-a-time FNV-1a against
//! v3's word fold, same frame), request round-trip latency over the
//! in-process loopback and real TCP, and pipelined read throughput at depth
//! 1/8/16/64 — the depths are recorded in the bench JSON (`params`) so
//! latency-vs-throughput trade-offs are comparable across runs.

use tsvd_bench::setup::standard_setup;
use tsvd_core::TreeSvdConfig;
use tsvd_datasets::DatasetConfig;
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::bin::{fnv1a64, CHECKSUM_OFFSET};
use tsvd_serve::net::wire::{self, Message, Reply, Request, RowsReply, HEADER_LEN};
use tsvd_serve::{ClientConfig, EmbeddingServer, NetClient, NetFront, ServeConfig, TcpTransport};

fn main() {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 2000;
    cfg.num_edges = 8000;
    cfg.tau = 2;
    let s = standard_setup(&cfg);
    let g0 = s.dataset.stream.snapshot(2);
    let tree_cfg = TreeSvdConfig { ..s.tree_cfg };

    let mut h = BenchHarness::from_args("net");
    let depths = [1usize, 8, 16, 64];
    h.record_param("subset_size", s.subset.len() as u64);
    h.record_param(
        "read_burst_depths",
        depths.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
    );

    // Pure codec: encode+decode a rows reply, no I/O.
    let rows_reply = |rows: usize, dim: usize| {
        Message::Reply(Reply::Rows(RowsReply {
            epoch: 7,
            checksum_bits: 0x1234_5678_9abc_def0,
            dim: dim as u32,
            rows: (0..rows)
                .map(|r| Some((0..dim).map(|c| (r * dim + c) as f64 * 0.25).collect()))
                .collect(),
        }))
    };
    for (name, rows, dim) in [("rows_64x16", 64, 16), ("rows_8x64", 8, 64)] {
        let reply = rows_reply(rows, dim);
        h.bench(&format!("codec_encode_decode/{name}"), || {
            let mut buf = Vec::new();
            wire::encode_frame(1, 0, &reply, &mut buf);
            let (frame, used) = wire::decode_frame(&buf).expect("own frame");
            (frame.request_id, used)
        });
    }

    // The frame checksum alone, over the 4 156-byte frame of one 8 × 64
    // reply: what v2 sealed frames with against what v3 does.
    let mut frame = Vec::new();
    wire::encode_frame(1, 0, &rows_reply(8, 64), &mut frame);
    assert_eq!(frame.len(), 4156);
    let (header_tail, payload) = (&frame[2..20], &frame[HEADER_LEN..]);
    h.bench("frame_checksum/fnv1a/4156B", || {
        fnv1a64(fnv1a64(CHECKSUM_OFFSET, header_tail), payload)
    });
    h.bench("frame_checksum/fold/4156B", || {
        wire::frame_checksum(header_tail, payload)
    });

    let engine = tsvd_serve::ShardedEngine::new(&g0, &s.subset, 2, s.ppr_cfg, tree_cfg);
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            num_shards: 2,
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    );
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").expect("bind bench listener");
    let probe: Vec<u32> = s.subset.iter().take(8).copied().collect();

    // Single-request round trip: loopback vs TCP.
    let mut lb = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    h.bench("ping_round_trip/loopback", || lb.ping().is_ok());
    h.bench("get_rows_round_trip/loopback", || {
        lb.get_rows(&probe).expect("rows").rows.len()
    });
    drop(lb);

    let mut tcp =
        NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap();
    h.bench("ping_round_trip/tcp", || tcp.ping().is_ok());
    h.bench("get_rows_round_trip/tcp", || {
        tcp.get_rows(&probe).expect("rows").rows.len()
    });

    // Pipelined read throughput: one bench iteration = `depth` requests in
    // flight on one connection; per-request cost shrinks as the depth
    // amortises the round trip.
    for depth in depths {
        let batch: Vec<Request> = (0..depth)
            .map(|_| Request::GetRows(probe.clone()))
            .collect();
        h.bench(&format!("pipelined_get_rows/depth_{depth}"), || {
            let replies = tcp.pipeline(&batch).expect("pipeline");
            assert_eq!(replies.len(), depth);
            depth
        });
    }
    drop(tcp);

    front.shutdown();
    h.finish();
}
