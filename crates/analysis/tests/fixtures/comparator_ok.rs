pub fn worst_first(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

pub fn checked(a: f32, b: f32) -> std::cmp::Ordering {
    a.partial_cmp(&b).expect("callers filter NaN")
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_the_partial_order() {
        let mut v = [2.0f32, 1.0];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
}
