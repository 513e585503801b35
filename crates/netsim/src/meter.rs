//! Data-movement reporting: bytes that crossed the storage→compute link,
//! formatted the way the paper's Figure 5 prints them.

/// Format a byte count the way the paper does (GB / MB / KB).
pub fn human_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_formatting() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(1_500), "1.50 KB");
        assert_eq!(human_bytes(5_370_000_000), "5.37 GB");
        assert_eq!(human_bytes(500_000), "500.00 KB");
    }
}
