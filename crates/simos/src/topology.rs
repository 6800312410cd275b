//! Machine topology: sockets, cores, and the inter-socket distance
//! matrix that NUMA-aware pricing hangs off.
//!
//! The paper evaluates on a single-socket Rocket/U500, where every
//! cross-core hop costs the same. Scale-out changes that: on a
//! multi-socket machine an IPI, a remote wakeup, or a relay-segment
//! cache-line pull crosses the *interconnect*, and the surcharge grows
//! with how far apart the two sockets sit. A [`Topology`] makes that
//! first-class:
//!
//! * [`DistanceMatrix`] — symmetric, zero-diagonal socket-to-socket
//!   distances in abstract units (0 = same socket; the
//!   [`XCoreCost`](crate::multicore::XCoreCost) turns units into cycle
//!   multipliers);
//! * [`Topology`] — `sockets × cores_per_socket` with the distance
//!   matrix, mapping core indices to sockets;
//! * presets — [`Topology::u500`] (the paper's single-socket quad-core,
//!   under which every distance is 0 and all pricing reduces exactly to
//!   the pre-NUMA model) and [`Topology::dual_socket`] (two quad-core
//!   sockets at distance 2, the smallest machine where placement has to
//!   trade distance surcharge against queue depth).

/// Index of a socket in a [`Topology`].
pub type SocketId = usize;

/// Symmetric socket-to-socket distance matrix with a zero diagonal.
///
/// Distances are abstract units, not cycles: 0 means "same socket", and
/// each unit scales the cross-core surcharge via
/// [`XCoreCost::numa_x10`](crate::multicore::XCoreCost::numa_x10). A
/// SLIT-style two-socket board is distance 2; a four-socket ring might
/// use 2 for neighbours and 4 for the far corner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    sockets: usize,
    d: Vec<u64>,
}

impl DistanceMatrix {
    /// Build from a row-major `sockets × sockets` table. Panics unless
    /// the matrix is symmetric with a zero diagonal.
    pub(crate) fn new(sockets: usize, d: Vec<u64>) -> Self {
        assert!(sockets > 0, "a machine has at least one socket");
        assert_eq!(d.len(), sockets * sockets, "distance matrix shape");
        for a in 0..sockets {
            assert_eq!(d[a * sockets + a], 0, "socket {a}: nonzero diagonal");
            for b in 0..sockets {
                assert_eq!(
                    d[a * sockets + b],
                    d[b * sockets + a],
                    "distance({a},{b}) != distance({b},{a})"
                );
            }
        }
        DistanceMatrix { sockets, d }
    }

    /// All sockets at `remote` distance from each other (0 on the
    /// diagonal) — the fully-connected symmetric interconnect.
    pub(crate) fn uniform(sockets: usize, remote: u64) -> Self {
        let d = (0..sockets * sockets)
            .map(|i| {
                if i / sockets == i % sockets {
                    0
                } else {
                    remote
                }
            })
            .collect();
        Self::new(sockets, d)
    }

    /// Number of sockets the matrix covers.
    pub(crate) fn sockets(&self) -> usize {
        self.sockets
    }

    /// Distance between sockets `a` and `b` (0 when `a == b`).
    pub(crate) fn get(&self, a: SocketId, b: SocketId) -> u64 {
        self.d[a * self.sockets + b]
    }
}

/// The machine shape: how many sockets, how many cores each, and how
/// far apart the sockets are.
///
/// Cores are numbered socket-major: core `i` lives on socket
/// `i / cores_per_socket`, so `[0, cores_per_socket)` is socket 0,
/// the next block socket 1, and so on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Sockets in the machine.
    pub sockets: usize,
    /// Cores per socket (uniform).
    pub cores_per_socket: usize,
    /// Socket-to-socket distances.
    pub distance: DistanceMatrix,
}

impl Topology {
    /// A custom topology. Panics unless the distance matrix covers
    /// exactly `sockets` sockets and both counts are nonzero.
    pub(crate) fn new(sockets: usize, cores_per_socket: usize, distance: DistanceMatrix) -> Self {
        assert!(cores_per_socket > 0, "a socket has at least one core");
        assert_eq!(
            distance.sockets(),
            sockets,
            "distance matrix covers every socket"
        );
        Topology {
            sockets,
            cores_per_socket,
            distance,
        }
    }

    /// The paper's machine: one socket, four cores, no interconnect.
    /// Every distance is 0, so NUMA-aware pricing reduces exactly to the
    /// single-socket model — the `scale` and `pipeline` experiments run
    /// under this preset unchanged.
    pub fn u500() -> Self {
        Self::single_socket(4)
    }

    /// A single socket of `cores` cores (all distances 0).
    pub fn single_socket(cores: usize) -> Self {
        Self::new(1, cores, DistanceMatrix::uniform(1, 0))
    }

    /// Two quad-core sockets at distance 2 — the smallest machine where
    /// remote hops price differently from local ones.
    pub fn dual_socket() -> Self {
        Self::new(2, 4, DistanceMatrix::uniform(2, 2))
    }

    /// Total cores in the machine.
    pub fn n_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The socket core `core` lives on.
    pub(crate) fn socket_of(&self, core: usize) -> SocketId {
        core / self.cores_per_socket
    }

    /// Distance between the sockets of two cores (0 when they share one).
    pub(crate) fn core_distance(&self, a: usize, b: usize) -> u64 {
        self.distance.get(self.socket_of(a), self.socket_of(b))
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::u500()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_symmetric_with_zero_diagonal() {
        for topo in [
            Topology::u500(),
            Topology::dual_socket(),
            Topology::single_socket(7),
        ] {
            let m = &topo.distance;
            for a in 0..m.sockets() {
                assert_eq!(m.get(a, a), 0, "diagonal of socket {a}");
                for b in 0..m.sockets() {
                    assert_eq!(m.get(a, b), m.get(b, a), "symmetry at ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn u500_is_the_flat_single_socket_machine() {
        let t = Topology::u500();
        assert_eq!(t.n_cores(), 4);
        assert_eq!(t.sockets, 1);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.core_distance(a, b), 0);
            }
        }
    }

    #[test]
    fn dual_socket_maps_cores_socket_major() {
        let t = Topology::dual_socket();
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(3), 0);
        assert_eq!(t.socket_of(4), 1);
        assert_eq!(t.socket_of(7), 1);
        assert_eq!(t.core_distance(0, 3), 0, "intra-socket");
        assert_eq!(t.core_distance(0, 4), 2, "cross-socket");
        assert_eq!(t.core_distance(4, 0), 2, "symmetric");
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn nonzero_diagonal_is_rejected() {
        DistanceMatrix::new(2, vec![1, 2, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "distance(0,1)")]
    fn asymmetry_is_rejected() {
        DistanceMatrix::new(2, vec![0, 2, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "covers every socket")]
    fn matrix_must_cover_every_socket() {
        Topology::new(3, 2, DistanceMatrix::uniform(2, 2));
    }
}
