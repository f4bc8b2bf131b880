//! `MPI_Info`-style hints controlling the middleware.
//!
//! ROMIO exposes layout knobs (`striping_unit`, `striping_factor`, ...)
//! through `MPI_Info`; our middleware follows the same convention for the
//! MHA controls the paper adds.

use mha_core::schemes::Scheme;
use std::collections::BTreeMap;

/// Parsed hint set.
#[derive(Debug, Clone, Default)]
pub struct Hints {
    map: BTreeMap<String, String>,
}

impl Hints {
    /// Empty hint set (all defaults).
    pub fn new() -> Self {
        Hints::default()
    }

    /// Set a hint (returns self for chaining, like `MPI_Info_set`).
    pub fn set(mut self, key: &str, value: &str) -> Self {
        self.map.insert(key.to_string(), value.to_string());
        self
    }

    /// Raw lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// `mha_scheme`: one of `def`, `aal`, `harl`, `mha` (default `mha`).
    pub(crate) fn scheme(&self) -> Scheme {
        match self.get("mha_scheme").unwrap_or("mha") {
            "def" => Scheme::Def,
            "aal" => Scheme::Aal,
            "harl" => Scheme::Harl,
            _ => Scheme::Mha,
        }
    }

    /// `mha_group_bound`: the k cap of Algorithm 1 (default 8).
    pub(crate) fn group_bound(&self) -> usize {
        self.parsed("mha_group_bound", 8)
    }

    /// `mha_step`: the RSSD search step in bytes (default 4096).
    pub(crate) fn step(&self) -> u64 {
        self.parsed("mha_step", 4096)
    }

    /// `mha_harl_regions`: HARL's fixed region count (default 8).
    pub(crate) fn harl_regions(&self) -> u32 {
        self.parsed("mha_harl_regions", 8)
    }

    /// `mha_lookup_us`: redirection lookup cost in microseconds
    /// (default 5).
    pub(crate) fn lookup_us(&self) -> u64 {
        self.parsed("mha_lookup_us", 5)
    }

    /// `mha_selective_gain`: minimum predicted cost improvement (as a
    /// fraction) a request group must show before its data is migrated
    /// (default 0 = migrate all groups).
    pub(crate) fn selective_gain(&self) -> f64 {
        self.parsed("mha_selective_gain", 0.0)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_mha() {
        let h = Hints::new();
        assert_eq!(h.scheme(), Scheme::Mha);
        assert_eq!(h.group_bound(), 8);
        assert_eq!(h.step(), 4096);
        assert_eq!(h.harl_regions(), 8);
        assert_eq!(h.lookup_us(), 5);
    }

    #[test]
    fn hints_parse() {
        let h = Hints::new()
            .set("mha_scheme", "harl")
            .set("mha_group_bound", "4")
            .set("mha_step", "16384");
        assert_eq!(h.scheme(), Scheme::Harl);
        assert_eq!(h.group_bound(), 4);
        assert_eq!(h.step(), 16384);
    }

    #[test]
    fn garbage_values_fall_back_to_defaults() {
        let h = Hints::new().set("mha_group_bound", "lots").set("mha_scheme", "magic");
        assert_eq!(h.group_bound(), 8);
        assert_eq!(h.scheme(), Scheme::Mha, "unknown scheme falls back to mha");
    }

    #[test]
    fn all_scheme_names_parse() {
        for (name, scheme) in [
            ("def", Scheme::Def),
            ("aal", Scheme::Aal),
            ("harl", Scheme::Harl),
            ("mha", Scheme::Mha),
        ] {
            assert_eq!(Hints::new().set("mha_scheme", name).scheme(), scheme);
        }
    }
}
