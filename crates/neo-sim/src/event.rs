//! Serial resources in simulated time: the cluster's FIFO frontend→engine link.

/// A serial FIFO link: one transfer occupies the wire at a time, each for
/// `bytes / bandwidth` seconds, and every delivery lands one propagation `latency`
/// after its transfer drains. This is the inter-node primitive cluster components
/// price frontend→engine hops with; the per-rank PCIe directions in
/// [`crate::transfer`] stay closed-form.
///
/// Pricing is deterministic and order-dependent only on the call order of
/// [`SerialLine::delivery`] — callers must offer transfers in a deterministic order
/// (the cluster router offers them in routing order).
#[derive(Debug, Clone, PartialEq)]
pub struct SerialLine {
    /// Propagation latency added after a transfer drains, in seconds.
    latency: f64,
    /// Wire bandwidth in bytes per second.
    bytes_per_s: f64,
    /// Time the wire finishes its last accepted transfer.
    free_at: f64,
}

impl SerialLine {
    /// A link with the given propagation latency (seconds) and bandwidth (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if the latency is negative/not finite or the bandwidth is not positive.
    pub fn new(latency: f64, bytes_per_s: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be finite and >= 0");
        assert!(
            bytes_per_s.is_finite() && bytes_per_s > 0.0,
            "bandwidth must be finite and positive"
        );
        Self { latency, bytes_per_s, free_at: 0.0 }
    }

    /// Accepts a transfer of `bytes` that becomes ready to send at `ready`, and
    /// returns its delivery time: the wire serializes transfers FIFO in call order,
    /// and the payload lands `latency` after its slot drains.
    ///
    /// # Panics
    ///
    /// Panics if `ready` is not finite or `bytes` is negative/not finite.
    pub fn delivery(&mut self, ready: f64, bytes: f64) -> f64 {
        assert!(ready.is_finite(), "ready time must be finite");
        assert!(bytes.is_finite() && bytes >= 0.0, "transfer size must be finite and >= 0");
        let start = self.free_at.max(ready);
        self.free_at = start + bytes / self.bytes_per_s;
        self.free_at + self.latency
    }

    /// Time the wire finishes its last accepted transfer (0 before any transfer).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Current propagation latency, in seconds.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Current wire bandwidth, in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.bytes_per_s
    }

    /// Re-rates the wire in place — a fault injector modelling congestion or a flaky
    /// cable cuts bandwidth and adds latency mid-simulation. In-flight transfers keep
    /// the delivery times they were quoted (`free_at` is preserved); only transfers
    /// accepted after the call see the new rates.
    ///
    /// # Panics
    ///
    /// Same domain checks as [`SerialLine::new`].
    pub fn reconfigure(&mut self, latency: f64, bytes_per_s: f64) {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be finite and >= 0");
        assert!(
            bytes_per_s.is_finite() && bytes_per_s > 0.0,
            "bandwidth must be finite and positive"
        );
        self.latency = latency;
        self.bytes_per_s = bytes_per_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_serial_line_delivers_after_transfer_plus_latency() {
        let mut line = SerialLine::new(0.5, 100.0);
        // 200 bytes at 100 B/s = 2 s on the wire, landing 0.5 s later.
        assert_eq!(line.delivery(1.0, 200.0), 3.5);
        assert_eq!(line.free_at(), 3.0);
    }

    #[test]
    fn serial_line_serializes_back_to_back_transfers_fifo() {
        let mut line = SerialLine::new(0.1, 10.0);
        let first = line.delivery(0.0, 20.0); // wire 0..2
        let second = line.delivery(0.0, 10.0); // queued: wire 2..3
        assert_eq!(first, 2.1);
        assert_eq!(second, 3.1);
        // A transfer ready after the wire drains is not delayed by the earlier ones.
        assert_eq!(line.delivery(10.0, 10.0), 11.1);
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let mut line = SerialLine::new(0.25, 1.0);
        assert_eq!(line.delivery(4.0, 0.0), 4.25);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn serial_line_rejects_zero_bandwidth() {
        let _ = SerialLine::new(0.0, 0.0);
    }

    #[test]
    fn reconfigure_rerates_new_transfers_but_keeps_quoted_deliveries() {
        let mut line = SerialLine::new(0.5, 100.0);
        assert_eq!(line.delivery(0.0, 200.0), 2.5); // wire busy 0..2
                                                    // Degrade mid-flight: bandwidth cut 10x, latency doubled.
        line.reconfigure(1.0, 10.0);
        assert_eq!(line.latency(), 1.0);
        assert_eq!(line.bytes_per_s(), 10.0);
        assert_eq!(line.free_at(), 2.0, "the in-flight transfer keeps its quoted slot");
        // The next transfer queues behind the old slot but drains at the new rate.
        assert_eq!(line.delivery(0.0, 10.0), 2.0 + 1.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn reconfigure_rejects_zero_bandwidth() {
        let mut line = SerialLine::new(0.0, 1.0);
        line.reconfigure(0.0, 0.0);
    }
}
