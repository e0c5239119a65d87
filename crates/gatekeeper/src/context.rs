//! The user context a gate check evaluates against.

use std::collections::HashMap;

/// Everything Gatekeeper knows about the user (and device) behind a
/// `gk_check(project, user)` call. Restraints "check various conditions of
/// a user, e.g., country/region, locale, mobile app, device, new user, and
/// number of friends" (§4).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserContext {
    /// Stable user id — the sampling key.
    pub user_id: u64,
    /// Whether the user is a Facebook employee.
    pub employee: bool,
    /// ISO country code, e.g. `"US"`.
    pub country: String,
    /// Locale, e.g. `"en_US"`.
    pub locale: String,
    /// Mobile app in use, if any (e.g. `"messenger"`).
    pub mobile_app: Option<String>,
    /// Device model, if known (e.g. `"Pixel 6"`).
    pub device: Option<String>,
    /// App version as (major, minor), if known.
    pub app_version: Option<(u32, u32)>,
    /// Whether the account was created recently.
    pub new_user: bool,
    /// Friend count.
    pub friend_count: u32,
    /// Account age in days.
    pub account_age_days: u32,
    /// Free-form extension attributes.
    pub attrs: HashMap<String, String>,
}

impl UserContext {
    /// Creates a minimal context with just a user id.
    pub fn with_id(user_id: u64) -> UserContext {
        UserContext {
            user_id,
            ..UserContext::default()
        }
    }

    /// Builder-style setter for `employee`.
    pub fn employee(mut self, yes: bool) -> UserContext {
        self.employee = yes;
        self
    }

    /// Builder-style setter for `country`.
    pub fn country(mut self, c: &str) -> UserContext {
        self.country = c.to_string();
        self
    }

    /// Builder-style setter for `device`.
    pub fn device(mut self, d: &str) -> UserContext {
        self.device = Some(d.to_string());
        self
    }

    /// Builder-style setter for `mobile_app`.
    pub fn mobile_app(mut self, a: &str) -> UserContext {
        self.mobile_app = Some(a.to_string());
        self
    }

    /// Builder-style setter for an extension attribute.
    pub fn attr(mut self, k: &str, v: &str) -> UserContext {
        self.attrs.insert(k.to_string(), v.to_string());
        self
    }
}

/// A 64-bit mix hash used for deterministic per-user sampling
/// (SplitMix64-style finalizer). Stable across runs and platforms.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hashes a string to 64 bits (FNV-1a), for salting by project name.
pub fn hash_str(s: &str) -> u64 {
    fnv1a(FNV_OFFSET, s)
}

/// [`hash_str`] of the concatenation of `parts`, without building it.
pub(crate) fn hash_strs(parts: &[&str]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, p| fnv1a(h, p))
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv1a(mut h: u64, s: &str) -> u64 {
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The paper's `rand($user_id)` (Figure 5): a deterministic uniform sample
/// in `[0, 1)` keyed by `(project, user)`. Stickiness per user is what
/// makes a staged rollout (1% → 10% → 100%) monotone: every user passing
/// at 1% still passes at 10%.
pub fn user_sample(project: &str, user_id: u64) -> f64 {
    salted_sample(hash_str(project), user_id)
}

/// [`user_sample`] with the salt already hashed.
pub(crate) fn salted_sample(salt: u64, user_id: u64) -> f64 {
    let h = mix64(salt ^ mix64(user_id));
    // Use the top 53 bits for a uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic_and_project_salted() {
        assert_eq!(user_sample("P", 42), user_sample("P", 42));
        assert_ne!(user_sample("P", 42), user_sample("Q", 42));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let n = 100_000;
        let mean: f64 = (0..n).map(|u| user_sample("proj", u)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        let below_10pct = (0..n).filter(|&u| user_sample("proj", u) < 0.1).count();
        let frac = below_10pct as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn hash_strs_hashes_the_concatenation() {
        assert_eq!(hash_strs(&["exp:", "echo"]), hash_str("exp:echo"));
        assert_eq!(hash_strs(&[]), hash_str(""));
    }

    #[test]
    fn rollout_is_monotone_per_user() {
        // Every user passing at 1% must also pass at 10% and 100%.
        for u in 0..10_000u64 {
            let s = user_sample("launch", u);
            if s < 0.01 {
                assert!(s < 0.10);
                assert!(s < 1.0);
            }
        }
    }

    #[test]
    fn builder_methods() {
        let ctx = UserContext::with_id(7)
            .employee(true)
            .country("US")
            .device("Pixel")
            .mobile_app("messenger")
            .attr("tier", "beta");
        assert!(ctx.employee);
        assert_eq!(ctx.country, "US");
        assert_eq!(ctx.attrs["tier"], "beta");
    }
}
