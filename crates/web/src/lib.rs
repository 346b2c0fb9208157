//! # netsim-web
//!
//! The synthetic web population: the structural stand-in for the 6.24 M
//! HTTP-Archive sites and the Alexa Top 100k that the paper measures.
//!
//! A population is built from two ingredients:
//!
//! 1. A **third-party service catalog** ([`services`]) modelled directly on
//!    the origins the paper attributes redundancy to: the Google
//!    Tag-Manager → Analytics chain, the Facebook pixel, the Google ads
//!    stack, Google fonts, hotjar, klaviyo, wp.com statistics, Squarespace
//!    assets and more. Each service describes the requests it triggers when
//!    embedded, how its domains are spread over IP pools (synchronized or
//!    not), how they are grouped into certificates, who issues those
//!    certificates, and which autonomous system hosts them.
//! 2. A **first-party profile** ([`profiles`]) controlling how generated
//!    sites look: how many resources they host themselves, whether they still
//!    use domain sharding, whether the shards share a certificate (the
//!    Let's-Encrypt-per-subdomain long tail of the paper's `CERT` cause), and
//!    how likely they are to embed each third-party service. The `archive`
//!    and `alexa` profiles differ exactly where the paper's two datasets do.
//!
//! [`population::PopulationBuilder`] assembles the DNS authority
//! ([`netsim_dns::Authority`]), the certificate inventory
//! ([`netsim_tls::CertificateStore`]), the AS registry
//! ([`netsim_asdb::AsRegistry`]) and per-site fetch plans ([`resources`])
//! into a [`environment::WebEnvironment`] the browser substrate can crawl.

pub mod deployment;
pub mod environment;
pub mod population;
pub mod profiles;
pub mod resources;
pub mod services;
pub mod site;

pub use deployment::{DeploymentCache, DeploymentLayers, MiscPool, SharedDeployment};
pub use environment::WebEnvironment;
pub use population::PopulationBuilder;
pub use profiles::PopulationProfile;
pub use resources::PlannedRequest;
pub use services::{
    DnsDeployment, IpCluster, ServiceCatalog, ServiceHosting, ServiceRequest, ThirdPartyService,
};
pub use site::{ShardingPlan, Website};
