//! Datasheet-level hardware specifications for every testbed evaluated in the paper.
//!
//! Table 1 of the paper lists three testbeds: AWS `g5.nxlarge` (A10G GPU + EPYC 7R32
//! host), AWS `g4dn.4xlarge` (T4 GPU + Xeon Platinum 8259CL host) and a local 8×H100 HGX
//! server (Xeon Platinum 8462Y+ host, 4 NUMA nodes). The performance behaviour NEO
//! exploits — a small GPU/CPU *memory-bandwidth* gap despite a huge *compute* gap — is
//! entirely captured by the numbers in this module.

use serde::{Deserialize, Serialize};

/// Specification of a single GPU device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A10G"`.
    pub name: String,
    /// HBM/GDDR capacity in bytes.
    pub mem_bytes: u64,
    /// Peak memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Peak dense fp16/bf16 tensor throughput in FLOP/s.
    pub flops: f64,
    /// Fraction of peak FLOPs achievable on realistic GEMM shapes (model FLOPs utilisation).
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth achievable by attention/GEMM kernels.
    pub bandwidth_efficiency: f64,
    /// Fixed per-kernel launch overhead in seconds (paper §3.1 notes Python launch cost).
    pub kernel_launch_overhead: f64,
}

/// Specification of the host CPU (the offload target).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"EPYC 7R32"`.
    pub name: String,
    /// Number of physical cores available to the instance.
    pub cores: usize,
    /// Host DRAM capacity in bytes.
    pub mem_bytes: u64,
    /// Sustainable memory bandwidth in bytes/s (the quantity Figure 10a sweeps).
    pub mem_bw: f64,
    /// Aggregate SIMD FLOP/s across all cores.
    pub flops: f64,
    /// Fraction of peak bandwidth the paged-attention CPU kernel achieves.
    pub bandwidth_efficiency: f64,
    /// Per-batch software overhead of dispatching the CPU kernel (seconds).
    pub dispatch_overhead: f64,
}

/// PCIe link between the GPU and the host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieSpec {
    /// Host-to-device bandwidth in bytes/s.
    pub bw_h2d: f64,
    /// Device-to-host bandwidth in bytes/s.
    pub bw_d2h: f64,
    /// Per-transfer latency in seconds.
    pub latency: f64,
}

/// Local NVMe/SSD used as the cold third KV tier (CPU-cache overflow).
///
/// Modeled like [`PcieSpec`] with direction-split bandwidth plus a per-transfer latency;
/// unlike PCIe the drive is shared by the whole tensor-parallel group, so the cost model
/// charges full (not per-rank) KV bytes against it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Sequential read bandwidth in bytes/s (disk → host, promotion path).
    pub bw_read: f64,
    /// Sequential write bandwidth in bytes/s (host → disk, demotion path).
    pub bw_write: f64,
    /// Per-transfer latency in seconds (submission + device).
    pub latency: f64,
    /// Bytes of the drive budgeted for demoted KV cache.
    pub capacity_bytes: u64,
}

/// GPU-to-GPU interconnect used for tensor parallelism (NVLink on the HGX testbed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Per-GPU all-reduce bus bandwidth in bytes/s.
    pub bw: f64,
    /// Per-collective latency in seconds.
    pub latency: f64,
}

/// A complete testbed: one or more identical GPUs, the host CPU, and the links between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Testbed {
    /// Instance / machine name, e.g. `"g5.4xlarge"`.
    pub name: String,
    /// GPU model installed in the machine.
    pub gpu: GpuSpec,
    /// Number of GPUs used for serving (tensor-parallel degree is bounded by this).
    pub num_gpus: usize,
    /// Host CPU available for offloading.
    pub cpu: CpuSpec,
    /// PCIe link per GPU.
    pub pcie: PcieSpec,
    /// Local NVMe used as the cold KV tier.
    pub disk: DiskSpec,
    /// GPU-GPU interconnect, if more than one GPU.
    pub interconnect: Option<InterconnectSpec>,
    /// Fraction of host DRAM the serving engine may use as CPU KV cache.
    pub cpu_cache_fraction: f64,
    /// Fraction of GPU memory usable for KV cache after weights and activations
    /// (mirrors vLLM's `gpu_memory_utilization`).
    pub gpu_mem_utilization: f64,
}

impl GpuSpec {
    /// NVIDIA T4: 16 GB GDDR6, 300 GB/s, 65 TFLOPS fp16 (the `g4dn` GPU).
    pub fn t4() -> Self {
        Self {
            name: "T4".to_string(),
            mem_bytes: 16 * GIB,
            mem_bw: 300e9,
            flops: 65e12,
            compute_efficiency: 0.45,
            bandwidth_efficiency: 0.75,
            kernel_launch_overhead: 8e-6,
        }
    }

    /// NVIDIA A10G: 24 GB GDDR6, 600 GB/s, 125 TFLOPS fp16 (the `g5` GPU).
    pub fn a10g() -> Self {
        Self {
            name: "A10G".to_string(),
            mem_bytes: 24 * GIB,
            mem_bw: 600e9,
            flops: 125e12,
            compute_efficiency: 0.5,
            bandwidth_efficiency: 0.8,
            kernel_launch_overhead: 8e-6,
        }
    }

    /// NVIDIA H100 SXM: 80 GB HBM3, 3.35 TB/s, ~990 TFLOPS bf16.
    pub fn h100() -> Self {
        Self {
            name: "H100".to_string(),
            mem_bytes: 80 * GIB,
            mem_bw: 3350e9,
            flops: 990e12,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.8,
            kernel_launch_overhead: 6e-6,
        }
    }
}

const GIB: u64 = 1024 * 1024 * 1024;

impl CpuSpec {
    /// EPYC 7R32 slice on a `g5.nxlarge` instance: `2n` physical cores and `16n` GB DRAM.
    ///
    /// The paper observes (§5.5) that g5.2xlarge ≈ g5.4xlarge in peak memory bandwidth,
    /// g5.8xlarge has about 2× the bandwidth of g5.4xlarge, and g5.16xlarge about 2× of
    /// g5.8xlarge; the figures below follow that progression.
    pub fn epyc_7r32_g5(n: usize) -> Self {
        let bw = match n {
            0..=2 => 42e9,
            3..=4 => 48e9,
            5..=8 => 96e9,
            _ => 190e9,
        };
        Self {
            name: format!("EPYC 7R32 ({} cores)", 2 * n),
            cores: 2 * n,
            mem_bytes: 16 * n as u64 * GIB,
            mem_bw: bw,
            // ~36 GFLOP/s per core of sustained AVX2 fp32 FMA at ~2.8 GHz.
            flops: 2.0 * n as f64 * 36e9,
            bandwidth_efficiency: 0.7,
            dispatch_overhead: 30e-6,
        }
    }

    /// Xeon Platinum 8259CL slice on `g4dn.4xlarge`: 8 physical cores, 64 GB DRAM.
    pub fn xeon_8259cl_g4dn() -> Self {
        Self {
            name: "Xeon Platinum 8259CL (8 cores)".to_string(),
            cores: 8,
            mem_bytes: 64 * GIB,
            mem_bw: 40e9,
            flops: 8.0 * 40e9,
            bandwidth_efficiency: 0.7,
            dispatch_overhead: 30e-6,
        }
    }

    /// One NUMA node of the HGX host (Xeon Platinum 8462Y+). The paper confines the
    /// 2-GPU experiments to a single NUMA node (1/4 of the 2 TB DRAM and bandwidth).
    pub fn xeon_8462y_numa_node() -> Self {
        Self {
            name: "Xeon Platinum 8462Y+ (1 NUMA node, 16 cores)".to_string(),
            cores: 16,
            mem_bytes: 512 * GIB,
            mem_bw: 140e9,
            flops: 16.0 * 80e9,
            bandwidth_efficiency: 0.7,
            dispatch_overhead: 25e-6,
        }
    }
}

impl PcieSpec {
    /// PCIe 3.0 x16 (T4 instances).
    pub fn gen3_x16() -> Self {
        Self { bw_h2d: 12e9, bw_d2h: 12e9, latency: 10e-6 }
    }

    /// PCIe 4.0 x16 (A10G instances).
    pub fn gen4_x16() -> Self {
        Self { bw_h2d: 24e9, bw_d2h: 24e9, latency: 10e-6 }
    }

    /// PCIe 5.0 x16 (H100 SXM hosts).
    pub fn gen5_x16() -> Self {
        Self { bw_h2d: 48e9, bw_d2h: 48e9, latency: 8e-6 }
    }
}

impl DiskSpec {
    /// Instance-store NVMe of the AWS `g4dn.4xlarge` (225 GB, PCIe 3.0-era drive).
    pub fn g4dn_nvme() -> Self {
        Self { bw_read: 2.2e9, bw_write: 1.1e9, latency: 80e-6, capacity_bytes: 225 * GIB }
    }

    /// Instance-store NVMe of the AWS `g5.xlarge` family (250 GB, PCIe 4.0-era drive).
    pub fn g5_nvme() -> Self {
        Self { bw_read: 3.5e9, bw_write: 1.8e9, latency: 60e-6, capacity_bytes: 250 * GIB }
    }

    /// Datacenter-class NVMe of the HGX H100 host (3.84 TB, PCIe 5.0-era drive).
    pub fn hgx_nvme() -> Self {
        Self { bw_read: 7.0e9, bw_write: 4.5e9, latency: 40e-6, capacity_bytes: 3840 * GIB }
    }
}

impl InterconnectSpec {
    /// NVLink 4 (H100 SXM): 450 GB/s effective all-reduce bus bandwidth per GPU.
    pub fn nvlink4() -> Self {
        Self { bw: 450e9, latency: 12e-6 }
    }
}

impl Testbed {
    /// AWS `g5.nxlarge`: one A10G GPU plus a `2n`-core EPYC 7R32 host slice.
    ///
    /// `n` must be one of 2, 4, 8, 16 (the sizes used in Figure 10a). `n = 4` is the
    /// default testbed for all other A10G experiments.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn g5_xlarge(n: usize) -> Self {
        assert!(n > 0, "g5 instance size must be positive");
        Self {
            name: format!("g5.{n}xlarge"),
            gpu: GpuSpec::a10g(),
            num_gpus: 1,
            cpu: CpuSpec::epyc_7r32_g5(n),
            pcie: PcieSpec::gen4_x16(),
            disk: DiskSpec::g5_nvme(),
            interconnect: None,
            cpu_cache_fraction: 0.6,
            gpu_mem_utilization: 0.9,
        }
    }

    /// AWS `g4dn.4xlarge`: one T4 GPU plus an 8-core Xeon 8259CL host slice.
    pub fn g4dn_4xlarge() -> Self {
        Self {
            name: "g4dn.4xlarge".to_string(),
            gpu: GpuSpec::t4(),
            num_gpus: 1,
            cpu: CpuSpec::xeon_8259cl_g4dn(),
            pcie: PcieSpec::gen3_x16(),
            disk: DiskSpec::g4dn_nvme(),
            interconnect: None,
            cpu_cache_fraction: 0.6,
            gpu_mem_utilization: 0.9,
        }
    }

    /// HGX H100 server restricted to `num_gpus` GPUs and a single CPU NUMA node,
    /// matching the paper's 2-GPU LLaMa-3.1-70B experiments.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero or greater than 8.
    pub fn hgx_h100(num_gpus: usize) -> Self {
        assert!((1..=8).contains(&num_gpus), "HGX has 1..=8 GPUs");
        Self {
            name: format!("hgx-{num_gpus}xH100"),
            gpu: GpuSpec::h100(),
            num_gpus,
            cpu: CpuSpec::xeon_8462y_numa_node(),
            pcie: PcieSpec::gen5_x16(),
            disk: DiskSpec::hgx_nvme(),
            interconnect: if num_gpus > 1 { Some(InterconnectSpec::nvlink4()) } else { None },
            cpu_cache_fraction: 0.5,
            gpu_mem_utilization: 0.9,
        }
    }

    /// Bytes of host DRAM available for the CPU KV cache.
    pub fn cpu_cache_bytes(&self) -> u64 {
        (self.cpu.mem_bytes as f64 * self.cpu_cache_fraction) as u64
    }

    /// Effective GPU memory bandwidth (datasheet × kernel efficiency), per GPU.
    pub fn gpu_eff_bw(&self) -> f64 {
        self.gpu.mem_bw * self.gpu.bandwidth_efficiency
    }

    /// Effective GPU compute (datasheet × MFU), per GPU.
    pub fn gpu_eff_flops(&self) -> f64 {
        self.gpu.flops * self.gpu.compute_efficiency
    }

    /// Effective CPU memory bandwidth available to the attention kernel.
    pub fn cpu_eff_bw(&self) -> f64 {
        self.cpu.mem_bw * self.cpu.bandwidth_efficiency
    }
}

impl std::fmt::Display for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}x{} ({} GB, {:.0} GB/s) + {} ({} GB, {:.0} GB/s)",
            self.name,
            self.num_gpus,
            self.gpu.name,
            self.gpu.mem_bytes / GIB,
            self.gpu.mem_bw / 1e9,
            self.cpu.name,
            self.cpu.mem_bytes / GIB,
            self.cpu.mem_bw / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_hardware_shapes() {
        let g5 = Testbed::g5_xlarge(4);
        assert_eq!(g5.cpu.cores, 8);
        assert_eq!(g5.cpu.mem_bytes, 64 * GIB);
        assert_eq!(g5.gpu.name, "A10G");

        let g4 = Testbed::g4dn_4xlarge();
        assert_eq!(g4.cpu.cores, 8);
        assert_eq!(g4.cpu.mem_bytes, 64 * GIB);
        assert_eq!(g4.gpu.name, "T4");

        let hgx = Testbed::hgx_h100(2);
        assert_eq!(hgx.num_gpus, 2);
        assert!(hgx.interconnect.is_some());
    }

    #[test]
    fn g5_bandwidth_progression_matches_paper() {
        // §5.5: 2x ≈ 4x, 8x ≈ 2 * 4x, 16x ≈ 2 * 8x.
        let b2 = CpuSpec::epyc_7r32_g5(2).mem_bw;
        let b4 = CpuSpec::epyc_7r32_g5(4).mem_bw;
        let b8 = CpuSpec::epyc_7r32_g5(8).mem_bw;
        let b16 = CpuSpec::epyc_7r32_g5(16).mem_bw;
        assert!((b4 - b2) / b4 < 0.2, "2x and 4x should be close");
        assert!(b8 / b4 > 1.7 && b8 / b4 < 2.3);
        assert!(b16 / b8 > 1.7 && b16 / b8 < 2.3);
    }

    #[test]
    fn memory_bandwidth_gap_much_smaller_than_compute_gap() {
        // §2.2: A10G vs host — compute gap ~100x, bandwidth gap ~3-10x.
        let tb = Testbed::g5_xlarge(4);
        let compute_gap = tb.gpu.flops / tb.cpu.flops;
        let bw_gap = tb.gpu.mem_bw / tb.cpu.mem_bw;
        assert!(compute_gap > 50.0, "compute gap {compute_gap}");
        assert!(bw_gap < 20.0, "bandwidth gap {bw_gap}");
        assert!(compute_gap / bw_gap > 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn g5_zero_size_panics() {
        let _ = Testbed::g5_xlarge(0);
    }

    #[test]
    #[should_panic(expected = "HGX")]
    fn hgx_too_many_gpus_panics() {
        let _ = Testbed::hgx_h100(9);
    }

    #[test]
    fn display_is_informative() {
        let s = Testbed::g5_xlarge(4).to_string();
        assert!(s.contains("A10G") && s.contains("g5.4xlarge"));
    }

    #[test]
    fn effective_numbers_below_peak() {
        for tb in [Testbed::g5_xlarge(4), Testbed::g4dn_4xlarge(), Testbed::hgx_h100(2)] {
            assert!(tb.gpu_eff_bw() < tb.gpu.mem_bw);
            assert!(tb.gpu_eff_flops() < tb.gpu.flops);
            assert!(tb.cpu_eff_bw() < tb.cpu.mem_bw);
        }
    }
}
