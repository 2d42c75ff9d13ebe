//! Token sampling from logits.

/// Returns the index of the largest logit (greedy decoding).
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn argmax(logits: &[f32]) -> u32 {
    assert!(!logits.is_empty(), "cannot take the argmax of an empty logit vector");
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_the_peak() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0, 2.9]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn argmax_prefers_first_of_equal_peaks() {
        assert_eq!(argmax(&[1.0, 2.0, 2.0]), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_logits_panic() {
        let _ = argmax(&[]);
    }
}
