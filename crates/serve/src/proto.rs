//! The serving wire protocol: JSON messages in the same `WGFB` frames as
//! the sweep fabric (length prefix + FNV-1a checksum, see
//! [`wgft_fabric::wire`]).
//!
//! Every request is idempotent at the daemon: `Classify` is a pure function
//! of `(request_id, tenant, image)` — even under `--chaos`, the injected
//! fault stream is seeded from `request_id`, so a client re-sending after a
//! lost response (or a daemon restart) gets the same answer. That is what
//! lets the retry layer mask a SIGKILL mid-load without any silent drops.
//!
//! A `Classify` image does not travel as JSON numbers. It is one JSON
//! string holding, per pixel, the 8 lowercase hex digits of
//! `f32::to_bits` (pixel 0 first): 8 bytes a pixel instead of ~20, encoded
//! and decoded without float formatting, and exact for every value —
//! including the infinities and NaNs that JSON numbers cannot carry, which
//! the daemon then refuses by name. Any other image form (a JSON array,
//! uppercase or non-hex digits, a length not a multiple of 8) is a decode
//! error. Every other message is plain derived JSON.

use crate::counters::{CountersSnapshot, TenantTier};
use crate::tier::ProtectionTier;
use serde::value::{Error, Value};
use serde::{Deserialize, Serialize};

/// A client-to-daemon request. Its wire form differs from the derived one
/// only in the image (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Classify one image under the tenant's protection tier.
    Classify {
        /// Client-chosen id; retries MUST reuse it (it seeds the chaos
        /// fault stream, making re-sends idempotent).
        request_id: u64,
        /// Tenant tag (maps to a configured tier; unknown tenants get the
        /// daemon's default tier).
        tenant: String,
        /// Flattened NCHW image, length = the served spec's image length.
        image: Vec<f32>,
    },
    /// Read every counter.
    Status,
    /// Read the serving configuration (enough for a client to rebuild the
    /// evaluation set and judge accuracy).
    Health,
    /// Ask the daemon to drain and exit its serve loop. Idempotent.
    Shutdown,
}

/// [`ServeRequest`] as framed: the same variants and fields, with the image
/// as [`PixelBits`].
#[derive(Serialize, Deserialize)]
enum WireRequest {
    Classify {
        request_id: u64,
        tenant: String,
        image: PixelBits,
    },
    Status,
    Health,
    Shutdown,
}

/// An image as one string of 8 lowercase hex digits per pixel, each the
/// pixel's `f32::to_bits`.
struct PixelBits(Vec<f32>);

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a lowercase hex digit, or 0xff if it is not one.
const NIBBLES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        table[HEX_DIGITS[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

impl Serialize for PixelBits {
    fn to_value(&self) -> Value {
        let mut digits = Vec::with_capacity(self.0.len() * 8);
        for pixel in &self.0 {
            let bits = pixel.to_bits();
            digits.extend(
                (0..8)
                    .rev()
                    .map(|n| HEX_DIGITS[(bits >> (4 * n)) as usize & 0xf]),
            );
        }
        Value::String(String::from_utf8(digits).expect("hex digits are ASCII"))
    }
}

impl Deserialize for PixelBits {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let text = v
            .as_str()
            .ok_or_else(|| Error::custom("image: expected a string of hex pixel bits"))?;
        if text.len() % 8 != 0 {
            return Err(Error::custom(format!(
                "image: {} hex digits is not 8 per pixel",
                text.len()
            )));
        }
        let mut pixels = Vec::with_capacity(text.len() / 8);
        for (index, digits) in text.as_bytes().chunks_exact(8).enumerate() {
            let (mut bits, mut seen) = (0u32, 0u8);
            for &digit in digits {
                let nibble = NIBBLES[usize::from(digit)];
                bits = bits << 4 | u32::from(nibble & 0xf);
                seen |= nibble;
            }
            if seen > 0xf {
                return Err(Error::custom(format!(
                    "image: pixel {index} is not 8 lowercase hex digits"
                )));
            }
            pixels.push(f32::from_bits(bits));
        }
        Ok(PixelBits(pixels))
    }
}

impl Serialize for ServeRequest {
    fn to_value(&self) -> Value {
        let wire = match self {
            ServeRequest::Classify {
                request_id,
                tenant,
                image,
            } => WireRequest::Classify {
                request_id: *request_id,
                tenant: tenant.clone(),
                image: PixelBits(image.clone()),
            },
            ServeRequest::Status => WireRequest::Status,
            ServeRequest::Health => WireRequest::Health,
            ServeRequest::Shutdown => WireRequest::Shutdown,
        };
        wire.to_value()
    }
}

impl Deserialize for ServeRequest {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(match WireRequest::from_value(v)? {
            WireRequest::Classify {
                request_id,
                tenant,
                image,
            } => ServeRequest::Classify {
                request_id,
                tenant,
                image: image.0,
            },
            WireRequest::Status => ServeRequest::Status,
            WireRequest::Health => ServeRequest::Health,
            WireRequest::Shutdown => ServeRequest::Shutdown,
        })
    }
}

/// A daemon-to-client response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeResponse {
    /// The classification answer.
    Classified {
        /// Echo of the request id.
        request_id: u64,
        /// Predicted class index.
        prediction: usize,
        /// Tier the request was actually served at.
        tier: ProtectionTier,
        /// Whether that tier is stronger than the tenant's base tier
        /// (the escalation monitor promoted it).
        promoted: bool,
    },
    /// Explicit load shed: the intake queue is at capacity. Retry with
    /// backoff — never a silent drop.
    Overloaded {
        /// Suggested delay before retrying.
        retry_ms: u64,
    },
    /// Explicit degraded-mode shed: the daemon is escalated and over its
    /// soft watermark, and this request's tier is being shed to protect
    /// the stronger tiers' latency. Retry with backoff.
    Degraded {
        /// Current escalation level.
        level: u32,
        /// Suggested delay before retrying.
        retry_ms: u64,
    },
    /// Counter snapshot.
    Status(CountersSnapshot),
    /// Serving configuration and baseline.
    Health {
        /// The `CampaignConfig` the daemon serves, verbatim JSON — a client
        /// can rebuild the synthetic evaluation set from it (dataset
        /// generation is cheap and deterministic; training is not needed).
        config_json: String,
        /// Conv algorithm in use (`standard` or `winograd`).
        algo: String,
        /// Fault-free baseline accuracy measured at startup.
        clean_accuracy: f64,
        /// Whether `--chaos` fault injection is active.
        chaos: bool,
        /// Identity hash of the loaded planner `ProtectionProfile`
        /// (`wgft-serve daemon --profile FILE`), `None` when serving
        /// without one.
        profile_hash: Option<String>,
        /// Current escalation level.
        escalation_level: u32,
        /// Configured tenants and their base/effective tiers.
        tenants: Vec<TenantTier>,
    },
    /// Shutdown recorded (first request and re-sends alike).
    ShutdownAck,
    /// The request was understood but refused.
    Error {
        /// Why.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgft_fabric::wire::{decode, encode, read_frame, write_frame};

    #[test]
    fn serve_messages_roundtrip_through_fabric_frames() {
        let requests = [
            ServeRequest::Classify {
                request_id: 42,
                tenant: "gold".to_string(),
                image: vec![0.5, -1.0, 0.25],
            },
            ServeRequest::Status,
            ServeRequest::Health,
            ServeRequest::Shutdown,
        ];
        for req in &requests {
            let mut buf = Vec::new();
            write_frame(&mut buf, &encode(req).unwrap()).unwrap();
            let payload = read_frame(&mut buf.as_slice()).unwrap();
            let back: ServeRequest = decode(&payload).unwrap();
            assert_eq!(&back, req);
        }

        let responses = [
            ServeResponse::Classified {
                request_id: 42,
                prediction: 3,
                tier: ProtectionTier::Checksum,
                promoted: true,
            },
            ServeResponse::Overloaded { retry_ms: 50 },
            ServeResponse::Degraded {
                level: 1,
                retry_ms: 50,
            },
            ServeResponse::Status(CountersSnapshot::default()),
            ServeResponse::Health {
                config_json: "{}".to_string(),
                algo: "winograd".to_string(),
                clean_accuracy: 0.9,
                chaos: false,
                profile_hash: Some("49786e5095715218".to_string()),
                escalation_level: 0,
                tenants: Vec::new(),
            },
            ServeResponse::ShutdownAck,
            ServeResponse::Error {
                message: "nope".to_string(),
            },
        ];
        for resp in &responses {
            let mut buf = Vec::new();
            write_frame(&mut buf, &encode(resp).unwrap()).unwrap();
            let payload = read_frame(&mut buf.as_slice()).unwrap();
            let back: ServeResponse = decode(&payload).unwrap();
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn pixel_bits_roundtrip_every_value_bit_for_bit() {
        let pixels = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            -3.25,
            f32::MAX,
        ];
        let frame = encode(&ServeRequest::Classify {
            request_id: 7,
            tenant: "free".to_string(),
            image: pixels.clone(),
        })
        .unwrap();
        let text = String::from_utf8(frame.clone()).unwrap();
        assert!(
            text.contains(r#""image":"00000000800000000000000100800000"#),
            "{text}"
        );
        match decode::<ServeRequest>(&frame).unwrap() {
            ServeRequest::Classify { image, .. } => assert_eq!(
                image.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                pixels.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
            ),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn malformed_images_are_decode_errors() {
        let frame = |image: &str| {
            format!(r#"{{"Classify":{{"request_id":7,"tenant":"free","image":{image}}}}}"#)
        };
        assert!(decode::<ServeRequest>(frame(r#""3f800000""#).as_bytes()).is_ok());
        for image in [
            "[1.0,0.5]",
            r#""3f80000""#,
            r#""3f8000003f""#,
            r#""3F800000""#,
            r#""3f80000g""#,
            r#""+f800000""#,
            r#""3f8000é""#,
            "null",
        ] {
            let err = decode::<ServeRequest>(frame(image).as_bytes())
                .expect_err(&format!("image {image} decoded"));
            assert!(err.to_string().contains("image"), "{image}: {err}");
        }
    }
}
