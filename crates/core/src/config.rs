//! Serialization configuration: the hybrid heuristic's knobs.

/// Configuration for the hybrid serialization stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerializationConfig {
    /// Minimum field size, in bytes, for the zero-copy path. Fields shorter
    /// than this are always copied. The paper's measurement study (§5)
    /// derives 512 bytes for its hardware platforms.
    ///
    /// Two special values reproduce the §5 ablation configurations:
    /// `0` scatter-gathers every byte/string field ("only scatter-gather"),
    /// and `usize::MAX` copies everything ("only copy").
    pub zero_copy_threshold: usize,
    /// Whether to use the combined serialize-and-send API (§3.2.3). When
    /// disabled, the stack materializes an intermediate scatter-gather
    /// array and prepends a separate packet-header entry — the ablation of
    /// Table 5.
    pub serialize_and_send: bool,
    /// Measurement-study-only mode (§2.4, Figures 3 and 13): "raw"
    /// scatter-gather with **no** memory-safety cost accounting (no
    /// recover_ptr, no reference-count charges). Never use in a real
    /// deployment; it exists to measure the upper bound the safety
    /// machinery is compared against.
    pub raw_scatter_gather: bool,
}

impl Default for SerializationConfig {
    fn default() -> Self {
        Self::hybrid()
    }
}

impl SerializationConfig {
    /// The paper's production configuration: 512-byte threshold, combined
    /// serialize-and-send.
    pub fn hybrid() -> Self {
        SerializationConfig {
            zero_copy_threshold: 512,
            serialize_and_send: true,
            raw_scatter_gather: false,
        }
    }

    /// Zero-copy every byte/string field in DMA-safe memory ("threshold 0").
    pub fn always_zero_copy() -> Self {
        SerializationConfig {
            zero_copy_threshold: 0,
            ..Self::hybrid()
        }
    }

    /// Copy every field ("threshold ∞").
    pub fn always_copy() -> Self {
        SerializationConfig {
            zero_copy_threshold: usize::MAX,
            ..Self::hybrid()
        }
    }

    /// Raw scatter-gather for the measurement study: zero-copy everything,
    /// charge no safety bookkeeping.
    pub fn raw() -> Self {
        SerializationConfig {
            zero_copy_threshold: 0,
            raw_scatter_gather: true,
            ..Self::hybrid()
        }
    }

    /// Disables the combined serialize-and-send optimization (Table 5
    /// ablation).
    pub fn without_serialize_and_send(mut self) -> Self {
        self.serialize_and_send = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hybrid_512() {
        let c = SerializationConfig::default();
        assert_eq!(c.zero_copy_threshold, 512);
        assert!(c.serialize_and_send);
    }

    #[test]
    fn ablation_configs() {
        assert_eq!(
            SerializationConfig::always_zero_copy().zero_copy_threshold,
            0
        );
        assert_eq!(
            SerializationConfig::always_copy().zero_copy_threshold,
            usize::MAX
        );
        assert!(
            !SerializationConfig::hybrid()
                .without_serialize_and_send()
                .serialize_and_send
        );
    }
}
