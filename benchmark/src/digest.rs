//! FNV-1a-64 digests of the program's outputs. The golden file holds the
//! digests of seed 42; any other seed prints its digests without a golden.

use std::io::Read;
use std::path::Path;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn of_bytes(bytes: &[u8]) -> String {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.hex()
}

/// Digest and total size of the regular files directly inside `dir` (a trace
/// store is flat), in file-name order; each file contributes its name, a NUL,
/// its length and its bytes.
pub fn of_dir(dir: &Path) -> std::io::Result<(String, u64)> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort_unstable();
    let mut hash = Fnv1a::new();
    let mut total = 0u64;
    let mut buffer = vec![0u8; 1 << 20];
    for name in names {
        let mut file = std::fs::File::open(dir.join(&name))?;
        let len = file.metadata()?.len();
        hash.update(name.as_bytes());
        hash.update(&[0]);
        hash.update(&len.to_le_bytes());
        total += len;
        loop {
            let read = file.read(&mut buffer)?;
            if read == 0 {
                break;
            }
            hash.update(&buffer[..read]);
        }
    }
    Ok((hash.hex(), total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_match_the_published_fnv1a_64_vectors() {
        assert_eq!(of_bytes(b""), "cbf29ce484222325");
        assert_eq!(of_bytes(b"a"), "af63dc4c8601ec8c");
        assert_eq!(of_bytes(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn directory_digest_depends_on_names_and_bytes_not_on_creation_order() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("digest-test-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for dir in [&a, &b] {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(a.join("1.seg"), b"one").unwrap();
        std::fs::write(a.join("2.seg"), b"two").unwrap();
        std::fs::write(b.join("2.seg"), b"two").unwrap();
        std::fs::write(b.join("1.seg"), b"one").unwrap();
        let same = of_dir(&a).unwrap();
        assert_eq!(same, of_dir(&b).unwrap());
        assert_eq!(same.1, 6);
        std::fs::write(b.join("2.seg"), b"tw0").unwrap();
        assert_ne!(same.0, of_dir(&b).unwrap().0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
