pub fn rank_tiles(scores: &[f32], tile_rows: usize) -> Vec<f32> {
    // Per-task set-up above the marked loop may allocate...
    let mut tile = vec![0.0f32; tile_rows];
    let mut best = Vec::new();
    let mut lo = 0;
    // ham-lint: hot-path
    while lo < scores.len() {
        let hi = (lo + tile_rows).min(scores.len());
        // ...but a fresh buffer per tile is exactly what the marker forbids.
        let copy = scores[lo..hi].to_vec();
        tile[..hi - lo].copy_from_slice(&copy);
        best.push(tile[0]);
        lo = hi;
    }
    best
}
