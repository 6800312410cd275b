//! Binder `Parcel` marshalling (§4.3): the typed container Android uses
//! for transaction arguments ("the client prepares a method code … along
//! with marshaled data (Parcels)").
//!
//! A real, self-describing wire format — each value is tagged — so the
//! `binder_surface` scenario moves genuinely structured data, and the
//! XPC port can place the same bytes in a relay segment instead of the
//! transaction buffer.

/// A marshalled value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// UTF-8 string.
    Str(String),
    /// Binary blob (surface pixels, bitmaps...).
    Blob(Vec<u8>),
    /// File descriptor (e.g. an ashmem region), by number.
    Fd(u32),
}

const TAG_I32: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BLOB: u8 = 4;
const TAG_FD: u8 = 5;

/// Errors from [`Parcel::read_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParcelError {
    /// Input ended inside a value.
    Truncated,
    /// Unknown type tag.
    BadTag(u8),
    /// String payload was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ParcelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParcelError::Truncated => write!(f, "parcel truncated"),
            ParcelError::BadTag(t) => write!(f, "unknown parcel tag {t}"),
            ParcelError::BadUtf8 => write!(f, "parcel string not utf-8"),
        }
    }
}

impl std::error::Error for ParcelError {}

/// A parcel under construction / being read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parcel {
    bytes: Vec<u8>,
}

impl Parcel {
    /// An empty parcel.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Wire size in bytes (what the transaction buffer / relay segment
    /// must carry).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Append a value.
    pub(crate) fn write(&mut self, v: &Value) {
        match v {
            Value::I32(x) => {
                self.bytes.push(TAG_I32);
                self.bytes.extend_from_slice(&x.to_le_bytes());
            }
            Value::I64(x) => {
                self.bytes.push(TAG_I64);
                self.bytes.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                self.bytes.push(TAG_STR);
                self.bytes
                    .extend_from_slice(&(s.len() as u32).to_le_bytes());
                self.bytes.extend_from_slice(s.as_bytes());
            }
            Value::Blob(b) => {
                self.bytes.push(TAG_BLOB);
                self.bytes
                    .extend_from_slice(&(b.len() as u32).to_le_bytes());
                self.bytes.extend_from_slice(b);
            }
            Value::Fd(fd) => {
                self.bytes.push(TAG_FD);
                self.bytes.extend_from_slice(&fd.to_le_bytes());
            }
        }
    }

    /// Decode every value.
    ///
    /// # Errors
    ///
    /// [`ParcelError`] on malformed input (the server must never trust the
    /// client's bytes).
    pub fn read_all(&self) -> Result<Vec<Value>, ParcelError> {
        let b = &self.bytes;
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < b.len() {
            let tag = b[i];
            i += 1;
            match tag {
                TAG_I32 => out.push(Value::I32(i32::from_le_bytes(take_array(b, &mut i)?))),
                TAG_I64 => out.push(Value::I64(i64::from_le_bytes(take_array(b, &mut i)?))),
                TAG_STR => {
                    let n = u32::from_le_bytes(take_array(b, &mut i)?) as usize;
                    let text = std::str::from_utf8(take(b, &mut i, n)?)
                        .map_err(|_| ParcelError::BadUtf8)?;
                    out.push(Value::Str(text.to_string()));
                }
                TAG_BLOB => {
                    let n = u32::from_le_bytes(take_array(b, &mut i)?) as usize;
                    out.push(Value::Blob(take(b, &mut i, n)?.to_vec()));
                }
                TAG_FD => out.push(Value::Fd(u32::from_le_bytes(take_array(b, &mut i)?))),
                t => return Err(ParcelError::BadTag(t)),
            }
        }
        Ok(out)
    }
}

/// The `n` bytes of `b` from `*i` on, moving `*i` past them.
fn take<'a>(b: &'a [u8], i: &mut usize, n: usize) -> Result<&'a [u8], ParcelError> {
    let start = *i;
    *i = i.checked_add(n).ok_or(ParcelError::Truncated)?;
    b.get(start..*i).ok_or(ParcelError::Truncated)
}

/// The next `N` bytes of `b` as an array, as [`take`] reads them.
fn take_array<const N: usize>(b: &[u8], i: &mut usize) -> Result<[u8; N], ParcelError> {
    take(b, i, N)?
        .try_into()
        .map_err(|_| ParcelError::Truncated)
}

/// The §5.5 surface-compositor transaction: build the Parcel the window
/// manager receives (method code + surface metadata + pixel payload).
pub fn surface_transaction(width: u32, height: u32, pixels: &[u8]) -> Parcel {
    let mut p = Parcel::new();
    p.write(&Value::I32(42)); // method code: drawSurface
    p.write(&Value::Str("com.example.surface".into()));
    p.write(&Value::I32(width as i32));
    p.write(&Value::I32(height as i32));
    p.write(&Value::Blob(pixels.to_vec()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut p = Parcel::new();
        let vals = vec![
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::Str("héllo".into()),
            Value::Blob(vec![0, 255, 3]),
            Value::Fd(11),
        ];
        for v in &vals {
            p.write(v);
        }
        let back = Parcel { bytes: p.bytes };
        assert_eq!(back.read_all().unwrap(), vals);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut p = Parcel::new();
        p.write(&Value::Blob(vec![1; 100]));
        let mut cut = p.bytes;
        cut.truncate(20);
        assert_eq!(
            Parcel { bytes: cut }.read_all(),
            Err(ParcelError::Truncated)
        );
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert_eq!(
            Parcel { bytes: vec![99] }.read_all(),
            Err(ParcelError::BadTag(99))
        );
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut bytes = vec![3u8]; // TAG_STR
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Parcel { bytes }.read_all(), Err(ParcelError::BadUtf8));
    }

    #[test]
    fn length_overflow_is_rejected() {
        // A blob claiming u32::MAX bytes must not overflow the cursor.
        let mut bytes = vec![4u8]; // TAG_BLOB
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Parcel { bytes }.read_all(), Err(ParcelError::Truncated));
    }

    #[test]
    fn surface_transaction_shape() {
        let p = surface_transaction(64, 32, &[7u8; 64 * 32]);
        let vals = p.read_all().unwrap();
        assert_eq!(vals[0], Value::I32(42));
        assert_eq!(vals[2], Value::I32(64));
        assert_eq!(vals[3], Value::I32(32));
        match &vals[4] {
            Value::Blob(b) => assert_eq!(b.len(), 64 * 32),
            other => panic!("{other:?}"),
        }
        assert!(p.len() > 64 * 32, "payload dominates the wire size");
    }
}
