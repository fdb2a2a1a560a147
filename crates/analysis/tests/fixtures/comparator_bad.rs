pub fn worst_first(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn best(values: &[(usize, f32)]) -> Option<&(usize, f32)> {
    values.iter().max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or_else(|| std::cmp::Ordering::Equal)
    })
}

pub fn merged(a: f32, b: f32) -> std::cmp::Ordering {
    // shortlists never hold a NaN score
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}
