//! NIC configuration knobs.

/// Per-NIC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NicConfig {
    /// Transmit-queue depth (hardware ring size). UCX sizes its rc_mlx5
    /// rings in the hundreds; the software ring occupancy check lives in
    /// the LLP, but the NIC enforces this as a hard cap too.
    pub txq_depth: u32,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig { txq_depth: 256 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_faithful() {
        let c = NicConfig::default();
        assert!(c.txq_depth >= 16, "put_bw polls every 16 posts");
    }
}
