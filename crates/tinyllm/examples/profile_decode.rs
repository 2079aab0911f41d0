//! Rough decode-time breakdown used during perf work (not a test).
use std::time::Instant;
use tinyllm::{BatchRow, ContinuousBatcher, GenRequest, Model, Scratch, TinyConfig};

fn main() {
    let cfg = TinyConfig::small();
    let model = Model::random(&cfg, 5);
    let ctx = 64;
    let mut kv = model.make_kv(8192, 16);
    let mut scratch = Scratch::new();
    let mut rows = Vec::new();
    for s in 0..16u64 {
        kv.register(s);
        let r: Vec<BatchRow> = (0..ctx)
            .map(|p| BatchRow {
                seq: s,
                pos: p,
                token: ((s as usize * 17 + p * 5) % 512) as u32,
            })
            .collect();
        model.forward_batch(&r, &mut kv, &mut scratch);
        rows.push(BatchRow {
            seq: s,
            pos: ctx,
            token: 7,
        });
    }
    let m = rows.len();

    model.embed_rows(&rows, &mut scratch);
    model.ln1_batch(0, m, &mut scratch);
    let reps = 300;
    let t = Instant::now();
    for _ in 0..reps {
        model.attn_batch(0, &rows, &mut kv, &mut scratch);
    }
    println!(
        "attn_batch:  {:.2} us/tok/layer",
        t.elapsed().as_secs_f64() / (reps * m) as f64 * 1e6
    );
    let t = Instant::now();
    for _ in 0..reps {
        model.ffn_batch(0, m, &mut scratch);
    }
    println!(
        "ffn_batch:   {:.2} us/tok/layer",
        t.elapsed().as_secs_f64() / (reps * m) as f64 * 1e6
    );
    let t = Instant::now();
    for _ in 0..reps {
        model.logits_batch(&(0..16).collect::<Vec<_>>(), &mut scratch);
    }
    println!(
        "logits:      {:.2} us/tok",
        t.elapsed().as_secs_f64() / (reps * m) as f64 * 1e6
    );

    let t = Instant::now();
    for _ in 0..reps {
        model.forward_batch(&rows, &mut kv, &mut scratch);
    }
    println!(
        "forward_batch: {:.2} us/tok (4 layers)",
        t.elapsed().as_secs_f64() / (reps * m) as f64 * 1e6
    );

    // Whole scheduler steps at the same shape (prompt 32 + 64 decodes).
    let mut b = ContinuousBatcher::new(model.clone(), 8192);
    for i in 0..16usize {
        b.submit(GenRequest {
            id: i as u64,
            prompt: (0..32).map(|p| ((i * 17 + p * 5) % 512) as u32).collect(),
            max_new: 66,
        })
        .expect("valid request");
    }
    b.step();
    let t = Instant::now();
    for _ in 0..64 {
        b.step();
    }
    println!(
        "sched step:  {:.2} us/tok (avg ctx ~64)",
        t.elapsed().as_secs_f64() / (64 * 16) as f64 * 1e6
    );
}
