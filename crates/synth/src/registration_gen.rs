//! Generating FRN registrations and the ARIN-style WHOIS database.
//!
//! The generator controls which providers are matchable to ASNs (the paper
//! matches 72.4% of providers) and makes unmatched providers predominantly
//! small (Figure 4), introduces field-level mess so the four matching methods
//! agree imperfectly (Figure 3), gives major providers many ASNs, and creates
//! a few ASNs shared between corporate siblings (§6.1).
//!
//! Sharding: every random quantity is drawn in a parallel per-provider pass
//! (one stream per provider sequence number); the serial parts — the
//! unmatched-quota walk and the id/ASN allocation with the holding-company
//! coupling between consecutive providers — consume no randomness of their
//! own beyond a dedicated selection stream, so the output is bit-identical
//! for any worker count.

use std::collections::{BTreeMap, BTreeSet};

use asnmap::records::{AsnEntry, Net, Org};
use asnmap::{FrnRegistration, Poc, SiblingGroups, WhoisDb};
use bdc::{Asn, ProviderId};
use rand::Rng;

use crate::config::SynthConfig;
use crate::providers_gen::ProviderProfile;
use crate::shard::{map_shards, shard_rng, SynthStage};
use crate::text::{email_domain_for, street_address_for};

/// Shard key of the dedicated unmatched-quota selection stream (distinct from
/// every per-provider sequence number).
const SELECTION_SHARD: u64 = u64::MAX;

/// Everything one provider's shard pre-draws; the sequential assembly pass
/// combines these without consuming any randomness itself.
struct ProviderDraws {
    /// Registered physical address.
    address: String,
    /// WHOIS org name is "<name> Holdings" instead of the uppercased name.
    org_holdings: bool,
    /// POC email degrades to admin@ instead of the registered noc@.
    poc_admin_email: bool,
    /// POC company name degrades to "<name> Operations".
    poc_ops_company: bool,
    /// POC address differs from the registered address.
    poc_other_address: Option<String>,
    /// Whether each of the provider's ASNs lists the POC directly.
    asn_poc_attach: Vec<bool>,
    /// Join a pending holding company (shared ASN) when one exists.
    join_shared: bool,
    /// Start a new holding company when none is pending.
    start_shared: bool,
    /// Address of the holding company, if one is started.
    holdco_address: String,
}

/// Everything the registration generator produces.
#[derive(Debug, Clone)]
pub struct RegistrationData {
    /// Provider-side FRN registrations.
    pub registrations: Vec<FrnRegistration>,
    /// ASN-side WHOIS database.
    pub whois: WhoisDb,
    /// Ground-truth provider → ASN assignment (what a perfect matcher would
    /// recover).
    pub true_provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>>,
    /// An as2org-style reference grouping of ASNs by organisation.
    pub reference_groups: SiblingGroups,
}

/// Generate registrations and WHOIS data for all providers.
///
/// `claims_count` (distinct locations claimed per provider) decides which
/// providers end up unmatched: the smallest providers are the most likely to
/// be single-homed without an ASN of their own.
pub fn generate_registrations(
    config: &SynthConfig,
    profiles: &[ProviderProfile],
    claims_count: &BTreeMap<ProviderId, usize>,
    workers: usize,
) -> RegistrationData {
    // Decide the unmatched set: walk providers from smallest to largest claim
    // count and mark them unmatched until the quota is filled, skipping some so
    // a few small providers still have ASNs. The walk is inherently serial
    // (it stops when the quota fills) but cheap; it draws from a dedicated
    // selection stream.
    let mut selection_rng = shard_rng(config.seed, SynthStage::Registrations, SELECTION_SHARD);
    let mut by_size: Vec<&ProviderProfile> = profiles.iter().collect();
    by_size.sort_by_key(|p| claims_count.get(&p.provider.id).copied().unwrap_or(0));
    let quota = ((profiles.len() as f64) * (1.0 - config.asn_match_rate)).round() as usize;
    let mut unmatched: BTreeSet<ProviderId> = BTreeSet::new();
    for p in &by_size {
        if unmatched.len() >= quota {
            break;
        }
        // Majors always have ASNs, and the JCC-style provider must be
        // attributable for the §6.3 case study to be runnable.
        if p.provider.major || p.jcc_like {
            continue;
        }
        if selection_rng.gen_bool(0.75) {
            unmatched.insert(p.provider.id);
        }
    }
    // Fill any remaining quota from the small end unconditionally.
    for p in &by_size {
        if unmatched.len() >= quota {
            break;
        }
        if !p.provider.major && !p.jcc_like {
            unmatched.insert(p.provider.id);
        }
    }

    // Parallel pass: pre-draw every random quantity from one stream per
    // provider. Draws happen unconditionally (even for unmatched providers)
    // so each provider's stream never depends on another provider's state.
    let draws: Vec<ProviderDraws> = map_shards(workers, profiles, |seq, profile| {
        let mut rng = shard_rng(config.seed, SynthStage::Registrations, seq as u64);
        let address = street_address_for(&mut rng, seq as u32 + 1);
        // Number of ASNs: majors get several, small providers one or two.
        let n_asns = if profile.provider.major {
            rng.gen_range(3..8)
        } else {
            rng.gen_range(1..3)
        };
        let org_holdings = rng.gen_bool(0.2);
        let poc_admin_email = rng.gen_bool(0.3);
        let poc_ops_company = rng.gen_bool(0.15);
        let poc_other_address = rng
            .gen_bool(0.2)
            .then(|| street_address_for(&mut rng, seq as u32 + 500));
        // One attach flag per ASN; the vector length carries n_asns forward.
        let asn_poc_attach = (0..n_asns).map(|_| rng.gen_bool(0.5)).collect();
        let join_shared = rng.gen_bool(0.5);
        let start_shared = rng.gen_bool(0.06);
        let holdco_address = street_address_for(&mut rng, 9000 + seq as u32);
        ProviderDraws {
            address,
            org_holdings,
            poc_admin_email,
            poc_ops_company,
            poc_other_address,
            asn_poc_attach,
            join_shared,
            start_shared,
            holdco_address,
        }
    });

    // Serial assembly: allocate ids/ASNs and resolve the holding-company
    // coupling between consecutive providers. Consumes no randomness.
    let mut registrations = Vec::new();
    let mut whois = WhoisDb::default();
    let mut true_provider_asns: BTreeMap<ProviderId, BTreeSet<Asn>> = BTreeMap::new();
    let mut reference_groups = SiblingGroups::new();

    let mut next_asn: u32 = 64500;
    let mut next_org: u64 = 1;
    let mut next_poc: u64 = 1;
    let mut next_net: u64 = 1;
    // Occasionally two consecutive small providers share a holding company
    // (and one ASN) — the "shared ASN" phenomenon.
    let mut pending_shared: Option<(String, Asn)> = None;

    for (seq, (profile, d)) in profiles.iter().zip(&draws).enumerate() {
        let provider = &profile.provider;
        let domain = email_domain_for(&provider.name);
        let contact_email = format!("noc@{domain}");
        registrations.push(FrnRegistration {
            frn: provider.frns.first().map(|f| f.value()).unwrap_or(0),
            provider_id: provider.id.value(),
            contact_email: contact_email.clone(),
            company_name: provider.name.clone(),
            physical_address: d.address.clone(),
        });

        if unmatched.contains(&provider.id) {
            continue;
        }

        let org_id = next_org;
        next_org += 1;
        // The WHOIS org name is a lightly mangled version of the legal name.
        let org_name = if d.org_holdings {
            format!("{} Holdings", provider.name)
        } else {
            provider.name.to_uppercase()
        };

        // POC fields degrade independently so the four methods disagree a bit.
        let poc_email = if d.poc_admin_email {
            format!("admin@{domain}")
        } else {
            contact_email.clone()
        };
        let poc_company = if d.poc_ops_company {
            format!("{} Operations", provider.name)
        } else {
            provider.name.clone()
        };
        let poc_address = d
            .poc_other_address
            .clone()
            .unwrap_or_else(|| d.address.clone());
        let poc_id = next_poc;
        next_poc += 1;
        whois.pocs.push(Poc {
            id: poc_id,
            email: poc_email,
            company_name: poc_company,
            address: poc_address,
        });
        whois.orgs.push(Org {
            id: org_id,
            name: org_name,
            poc_ids: vec![poc_id],
        });
        whois.nets.push(Net {
            id: next_net,
            org_id,
            poc_ids: vec![poc_id],
        });
        next_net += 1;

        let mut asns = BTreeSet::new();
        for attach in &d.asn_poc_attach {
            let asn = Asn(next_asn);
            next_asn += 1;
            whois.asns.push(AsnEntry {
                asn: asn.value(),
                org_id: Some(org_id),
                poc_ids: if *attach { vec![poc_id] } else { vec![] },
            });
            asns.insert(asn);
        }

        // Shared-ASN scenario: pair this provider with the previous pending
        // one under a common holding-company domain and a common ASN.
        if !provider.major {
            match pending_shared.take() {
                Some((shared_domain, shared_asn)) if d.join_shared => {
                    // Give this provider the shared contact domain as well,
                    // so the email-domain method maps the shared ASN to both.
                    registrations.last_mut().expect("just pushed").contact_email =
                        format!("noc@{shared_domain}");
                    asns.insert(shared_asn);
                }
                Some(pending) => pending_shared = Some(pending),
                None if d.start_shared => {
                    let shared_domain = format!("holdco{}.net", seq);
                    let shared_asn = Asn(next_asn);
                    next_asn += 1;
                    let shared_poc = next_poc;
                    next_poc += 1;
                    whois.pocs.push(Poc {
                        id: shared_poc,
                        email: format!("noc@{shared_domain}"),
                        company_name: format!("HoldCo {seq}"),
                        address: d.holdco_address.clone(),
                    });
                    whois.asns.push(AsnEntry {
                        asn: shared_asn.value(),
                        org_id: None,
                        poc_ids: vec![shared_poc],
                    });
                    registrations.last_mut().expect("just pushed").contact_email =
                        format!("noc@{shared_domain}");
                    asns.insert(shared_asn);
                    pending_shared = Some((shared_domain, shared_asn));
                }
                None => {}
            }
        }

        for asn in &asns {
            reference_groups.insert(provider.name.clone(), asn.value());
        }
        true_provider_asns.insert(provider.id, asns);
    }

    RegistrationData {
        registrations,
        whois,
        true_provider_asns,
        reference_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthUs;
    use asnmap::ProviderAsnMatcher;

    fn build() -> (
        SynthConfig,
        Vec<ProviderProfile>,
        RegistrationData,
        BTreeMap<ProviderId, usize>,
    ) {
        let config = SynthConfig::tiny(41);
        let world = SynthUs::generate(&config);
        let claims_count: BTreeMap<ProviderId, usize> = world
            .filings
            .iter()
            .map(|f| (f.provider, f.claimed_location_count()))
            .collect();
        let data = generate_registrations(&config, &world.profiles, &claims_count, 1);
        (config, world.profiles, data, claims_count)
    }

    #[test]
    fn registrations_are_worker_count_invariant() {
        let (config, profiles, base, claims_count) = build();
        for workers in [2, 6] {
            let got = generate_registrations(&config, &profiles, &claims_count, workers);
            assert_eq!(got.registrations, base.registrations);
            assert_eq!(got.true_provider_asns, base.true_provider_asns);
            assert_eq!(got.whois.asns, base.whois.asns);
            assert_eq!(got.whois.pocs, base.whois.pocs);
            assert_eq!(got.whois.orgs, base.whois.orgs);
            assert_eq!(got.whois.nets, base.whois.nets);
        }
    }

    #[test]
    fn every_provider_has_a_registration() {
        let (_, profiles, data, _) = build();
        assert_eq!(data.registrations.len(), profiles.len());
    }

    #[test]
    fn matched_fraction_close_to_config() {
        let (config, profiles, data, _) = build();
        let matched = data.true_provider_asns.len() as f64 / profiles.len() as f64;
        assert!(
            (matched - config.asn_match_rate).abs() < 0.12,
            "matched fraction {matched}"
        );
    }

    #[test]
    fn majors_always_have_asns_and_more_of_them() {
        let (_, profiles, data, _) = build();
        for p in profiles.iter().filter(|p| p.provider.major) {
            let asns = data.true_provider_asns.get(&p.provider.id);
            assert!(asns.is_some(), "major {} unmatched", p.provider.name);
            assert!(asns.unwrap().len() >= 3);
        }
    }

    #[test]
    fn unmatched_providers_are_smaller() {
        let (_, profiles, data, claims_count) = build();
        let matched_sizes: Vec<usize> = profiles
            .iter()
            .filter(|p| data.true_provider_asns.contains_key(&p.provider.id))
            .map(|p| claims_count[&p.provider.id])
            .collect();
        let unmatched_sizes: Vec<usize> = profiles
            .iter()
            .filter(|p| !data.true_provider_asns.contains_key(&p.provider.id))
            .map(|p| claims_count[&p.provider.id])
            .collect();
        assert!(!unmatched_sizes.is_empty());
        let median = |mut v: Vec<usize>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(
            median(matched_sizes) > median(unmatched_sizes),
            "matched providers should claim more locations than unmatched ones"
        );
    }

    #[test]
    fn matcher_recovers_most_assignments() {
        let (_, _, data, _) = build();
        let matcher = ProviderAsnMatcher::new(data.registrations.clone());
        let report = matcher.run(&data.whois);
        // The matcher should find ASNs for the large majority of providers
        // that truly have them.
        let recovered = data
            .true_provider_asns
            .keys()
            .filter(|p| report.provider_to_asns.contains_key(&p.value()))
            .count();
        let frac = recovered as f64 / data.true_provider_asns.len() as f64;
        assert!(frac > 0.8, "matcher recovered only {frac}");
    }

    #[test]
    fn asn_numbers_are_unique() {
        let (_, _, data, _) = build();
        let mut asns: Vec<u32> = data.whois.asns.iter().map(|a| a.asn).collect();
        let before = asns.len();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(before, asns.len());
    }
}
