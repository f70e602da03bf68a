//! SHA-1 implemented from scratch per RFC 3174 / FIPS 180-1.
//!
//! The paper generates every node ID and task key by "feeding random
//! numbers into the SHA1 hash function". SHA-1 is cryptographically broken
//! for collision resistance, but that is irrelevant here: the DHT only
//! needs its *output distribution*, which remains indistinguishable from
//! uniform. Implementing it in-repo keeps the workspace dependency-free
//! and lets tests pin the exact RFC test vectors.

use crate::Id;

/// Streaming SHA-1 hasher.
///
/// ```
/// use autobal_id::sha1::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// fn hex(d: &[u8; 20]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the RFC 3174 initial state.
    pub fn new() -> Sha1 {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;

        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything fit in the partial buffer; the remainder
                // handling below must not clobber buf_len.
                return;
            }
        }

        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Append 0x80 then zeros until 8 bytes short of a block boundary.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // The two updates above also advanced self.len, but the length
        // field must reflect the original message only.
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        self.output()
    }

    /// The state words as the big-endian digest.
    fn output(&self) -> [u8; 20] {
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One compression-function application on a 64-byte block.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;

        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// Hashes `data` in one shot.
pub fn digest(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Hashes `data` and interprets the digest as a ring [`Id`] — the way the
/// paper assigns both node IDs and task keys.
pub fn sha1_id(data: &[u8]) -> Id {
    Id::from_be_bytes(digest(data))
}

/// Hashes a `u64` counter/random draw, the paper's "random numbers into
/// SHA1" key-generation scheme.
///
/// An 8-byte message pads to exactly one block (the big-endian value,
/// the `0x80` marker, zeros, and the 64-bit message length in bits), so
/// the digest is one compression of that block.
pub fn sha1_id_of_u64(v: u64) -> Id {
    let mut block = [0u8; 64];
    block[..8].copy_from_slice(&v.to_be_bytes());
    block[8] = 0x80;
    block[56..].copy_from_slice(&64u64.to_be_bytes());
    let mut h = Sha1::new();
    h.compress(&block);
    Id::from_be_bytes(h.output())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The streaming hasher over a `u64`'s big-endian bytes.
    fn streamed_id(v: u64) -> Id {
        sha1_id(&v.to_be_bytes())
    }

    #[test]
    fn one_block_u64_matches_streaming_at_the_edges() {
        for v in [0, 1, u64::MAX] {
            assert_eq!(sha1_id_of_u64(v), streamed_id(v), "{v}");
        }
    }

    proptest! {
        #[test]
        fn one_block_u64_matches_streaming(v in any::<u64>()) {
            prop_assert_eq!(sha1_id_of_u64(v), streamed_id(v));
        }
    }

    fn hex(d: &[u8; 20]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn rfc_vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc_vector_two_blocks() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn rfc_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let msg: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let want = digest(&msg);
        for split in 0..msg.len() {
            let mut h = Sha1::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Messages of length 55, 56, 57, 63, 64, 65 exercise the padding
        // edge cases (55 fits one block; 56+ spills to a second).
        let known = [
            (55usize, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
        ];
        for (n, want) in known {
            let msg = vec![b'a'; n];
            assert_eq!(hex(&digest(&msg)), want, "len {n}");
        }
    }

    #[test]
    fn sha1_id_matches_digest() {
        let id = sha1_id(b"hello");
        assert_eq!(id.to_be_bytes().to_vec(), digest(b"hello").to_vec());
    }

    #[test]
    fn u64_keying_is_deterministic_and_spread() {
        let a = sha1_id_of_u64(1);
        let b = sha1_id_of_u64(1);
        let c = sha1_id_of_u64(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
