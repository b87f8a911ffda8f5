//! # `drm` — digital rights management per Wolf's §6
//!
//! *"Digital rights management (DRM) encompasses all the operations
//! necessary to enforce copyright and license agreements."* This crate
//! implements the whole §6 architecture:
//!
//! * [`license`] — the paper's four right forms (play, play count, device
//!   set, time window), sealed licenses with tamper-detecting MACs.
//! * [`store`] — the on-device store with offline verification and
//!   online-updatable rights markers.
//! * [`playback`] — the protected path: authorization transaction,
//!   in-device decryption, and the analog-only output policy the paper
//!   gives as its example countermeasure.
//! * [`cipher`] / [`hash`] — from-scratch XTEA-CTR and a keyed MAC (the
//!   *tools*; clean-room primitives suffice because the rights
//!   architecture, not the cipher, is the object of study).
//!
//! # Example
//!
//! ```
//! use drm::license::{DeviceId, Right, TitleId};
//! use drm::playback::{protected_play, LicenseAuthority, OutputPolicy, PlaybackDevice};
//!
//! let mut authority = LicenseAuthority::new(b"studio".to_vec());
//! let title = TitleId(1);
//! authority.register_title(title);
//! let mut device = PlaybackDevice::new(DeviceId(5), OutputPolicy::DigitalAllowed);
//! let sealed = authority.issue(title, vec![Right::PlayCount(1)]);
//! device.store_mut().install(&sealed, authority.verification_key()).unwrap();
//! assert!(protected_play(&mut device, &authority, title, b"media", 1, 0).is_ok());
//! assert!(protected_play(&mut device, &authority, title, b"media", 1, 0).is_err());
//! ```

pub mod cipher;
pub mod hash;
pub mod license;
pub mod playback;
pub mod store;

pub use license::{DeviceId, License, Refusal, Right, TitleId};
pub use playback::{LicenseAuthority, OutputPolicy, PlaybackDevice};
pub use store::{LicenseStore, StoreDecision};
