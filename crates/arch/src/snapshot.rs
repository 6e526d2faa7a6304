//! [`Snapshot`] impls for search-space types.
//!
//! [`DesignPoint`] rides on the [`ActionSpace`] codec: it is stored as
//! its 44-symbol action sequence, so the on-disk representation is the
//! same canonical encoding the RL controller emits, and any tampered
//! sequence is rejected by the codec's own validation.

use crate::codec::ActionSpace;
use crate::skeleton::NetworkSkeleton;
use crate::space::DesignPoint;
use yoso_persist::{ByteReader, ByteWriter, PersistError, Snapshot};

impl Snapshot for DesignPoint {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usizes(&ActionSpace::new().encode(self));
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let actions = r.take_usizes()?;
        ActionSpace::new()
            .decode(&actions)
            .map_err(|e| PersistError::Malformed(format!("design point: {e}")))
    }
}

impl Snapshot for NetworkSkeleton {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_usize(self.input_hw);
        w.put_usize(self.input_channels);
        w.put_usize(self.num_classes);
        w.put_usize(self.init_channels);
        w.put_usize(self.num_cells);
        w.put_usizes(&self.reduction_positions);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(NetworkSkeleton {
            input_hw: r.take_usize()?,
            input_channels: r.take_usize()?,
            num_classes: r.take_usize()?,
            init_channels: r.take_usize()?,
            num_cells: r.take_usize()?,
            reduction_positions: r.take_usizes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn roundtrip<T: Snapshot>(v: &T) -> T {
        let mut w = ByteWriter::new();
        v.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let out = T::restore(&mut r).expect("restore");
        assert_eq!(r.remaining(), 0, "trailing bytes");
        out
    }

    #[test]
    fn design_point_roundtrips() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = DesignPoint::random(&mut rng);
            assert_eq!(roundtrip(&p), p);
        }
    }

    #[test]
    fn tampered_design_point_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = DesignPoint::random(&mut rng);
        let mut w = ByteWriter::new();
        p.snapshot(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the first action symbol to an out-of-vocab value.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            DesignPoint::restore(&mut ByteReader::new(&bytes)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn skeleton_roundtrips() {
        for sk in [
            NetworkSkeleton::tiny(),
            NetworkSkeleton::small(),
            NetworkSkeleton::paper_default(),
        ] {
            assert_eq!(roundtrip(&sk), sk);
        }
    }
}
