//! Internet service providers participating in the BDC.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::ids::{Frn, ProviderId};
use crate::tech::Technology;

/// An ISP that files BDC availability data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provider {
    pub id: ProviderId,
    /// Legal entity name (used by the company-name ASN matching method).
    pub name: String,
    /// Consumer-facing brand name reported in filings (e.g. Comcast files as
    /// "Xfinity"); may equal `name`.
    pub brand: String,
    /// FCC Registration Numbers associated with the provider.
    pub frns: Vec<Frn>,
    /// Technologies the provider deploys.
    pub technologies: Vec<Technology>,
    /// Whether this is one of the "major eight" national terrestrial ISPs the
    /// paper breaks out in Figure 6.
    pub major: bool,
    /// Home state of the provider's registration (used for registration
    /// metadata generation and reporting).
    pub home_state: String,
}

/// Registry of all providers, with lookups by id and brand.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProviderRegistry {
    providers: Vec<Provider>,
    by_id: HashMap<ProviderId, usize>,
}

impl ProviderRegistry {
    /// Build a registry from a provider list.
    pub fn new(providers: Vec<Provider>) -> Self {
        let by_id = providers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id, i))
            .collect();
        Self { providers, by_id }
    }

    /// All providers.
    pub fn providers(&self) -> &[Provider] {
        &self.providers
    }

    /// Number of registered providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// True when no providers are registered.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// Look a provider up by id.
    pub fn get(&self, id: ProviderId) -> Option<&Provider> {
        self.by_id.get(&id).map(|&i| &self.providers[i])
    }

    /// The major national ISPs (Figure 6's "largest eight terrestrial ISPs").
    pub fn major_providers(&self) -> Vec<&Provider> {
        self.providers.iter().filter(|p| p.major).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider(id: u32, techs: Vec<Technology>, major: bool) -> Provider {
        Provider {
            id: ProviderId(id),
            name: format!("Provider {id} LLC"),
            brand: format!("Brand{id}"),
            frns: vec![Frn(id as u64 * 1000)],
            technologies: techs,
            major,
            home_state: "VA".into(),
        }
    }

    #[test]
    fn registry_lookup() {
        let reg = ProviderRegistry::new(vec![
            provider(1, vec![Technology::Fiber], true),
            provider(2, vec![Technology::GsoSatellite], false),
        ]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(ProviderId(1)).is_some());
        assert!(reg.get(ProviderId(3)).is_none());
    }

    #[test]
    fn major_filter() {
        let reg = ProviderRegistry::new(vec![
            provider(1, vec![Technology::Fiber], true),
            provider(2, vec![Technology::Cable], false),
            provider(3, vec![Technology::Cable], true),
        ]);
        assert_eq!(reg.major_providers().len(), 2);
    }
}
