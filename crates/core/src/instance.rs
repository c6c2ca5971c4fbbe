//! Library instances — backend selection and device ownership.
//!
//! Mirrors `cuBool_Initialize`: an application creates one instance per
//! backend configuration and all matrices/vectors belong to it. The
//! backend is always named explicitly; [`Instance::blocked`] is the one
//! way to put tiled block storage beneath a backend.

use std::sync::Arc;

use spbla_gpu_sim::Device;

/// Which implementation executes the operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Sequential host reference (cuBool's CPU fallback).
    Cpu,
    /// cuBool design: CSR + hash SpGEMM + two-pass merge add.
    CudaSim,
    /// clBool design: COO + ESC SpGEMM + one-pass merge add.
    ClSim,
}

impl Backend {
    /// Short static name, also used as the `backend` label on
    /// per-kernel metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Cpu => "cpu",
            Backend::CudaSim => "cuda-sim",
            Backend::ClSim => "cl-sim",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug)]
struct InstanceInner {
    backend: Backend,
    device: Option<Device>,
    /// Store matrices as adaptive tiled blocks (`BlockMatrix`) instead
    /// of the backend's flat format. Kernels still run — and are
    /// metered — under this backend's label; only the storage layer
    /// changes, so results must stay bit-identical.
    blocked: bool,
}

/// A configured library instance. Cheap to clone (all clones share the
/// backend and device); operations require both operands to come from the
/// same instance.
#[derive(Debug, Clone)]
pub struct Instance {
    inner: Arc<InstanceInner>,
}

impl Instance {
    fn make(backend: Backend, device: Option<Device>) -> Self {
        Instance {
            inner: Arc::new(InstanceInner {
                backend,
                device,
                blocked: false,
            }),
        }
    }

    /// An instance whose matrices use adaptive tiled block storage
    /// (per-tile dense-bit/CSR/COO with densify-time switching) beneath
    /// the given backend. Device backends get a default device, same as
    /// their flat constructors.
    pub fn blocked(backend: Backend) -> Self {
        Instance::blocked_on(
            backend,
            matches!(backend, Backend::CudaSim | Backend::ClSim).then(Device::default),
        )
    }

    /// Blocked-storage instance on a caller-provided device (pass
    /// `None` for the host backends).
    pub fn blocked_on(backend: Backend, device: Option<Device>) -> Self {
        Instance {
            inner: Arc::new(InstanceInner {
                backend,
                device,
                blocked: true,
            }),
        }
    }

    /// Whether matrices of this instance use tiled block storage.
    pub fn is_blocked(&self) -> bool {
        self.inner.blocked
    }

    /// Sequential CPU reference instance.
    pub fn cpu() -> Self {
        Instance::make(Backend::Cpu, None)
    }

    /// cuBool-style instance on a default simulated device.
    pub fn cuda_sim() -> Self {
        Instance::make(Backend::CudaSim, Some(Device::default()))
    }

    /// clBool-style instance on a default simulated device.
    pub fn cl_sim() -> Self {
        Instance::make(Backend::ClSim, Some(Device::default()))
    }

    /// cuBool-style instance on a caller-provided device (e.g. with a
    /// memory cap for failure injection, or shared across instances).
    pub fn cuda_sim_on(device: Device) -> Self {
        Instance::make(Backend::CudaSim, Some(device))
    }

    /// clBool-style instance on a caller-provided device.
    pub fn cl_sim_on(device: Device) -> Self {
        Instance::make(Backend::ClSim, Some(device))
    }

    /// The backend this instance executes on.
    pub fn backend(&self) -> Backend {
        self.inner.backend
    }

    /// The simulated device, if the backend has one.
    pub fn device(&self) -> Option<&Device> {
        self.inner.device.as_ref()
    }

    /// Whether two instance handles refer to the same instance.
    pub fn same_as(&self, other: &Instance) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_are_same_instance() {
        let a = Instance::cuda_sim();
        let b = a.clone();
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Instance::cuda_sim()));
    }

    #[test]
    fn backends_and_devices() {
        assert_eq!(Instance::cpu().backend(), Backend::Cpu);
        assert!(Instance::cpu().device().is_none());
        assert!(Instance::cuda_sim().device().is_some());
    }
}
