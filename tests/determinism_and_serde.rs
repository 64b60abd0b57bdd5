//! Cross-crate guarantees: seeded determinism of every stochastic
//! pipeline.

use multiclust::alternative::{Cami, DecKMeans, MinCEntropy};
use multiclust::base::{GaussianMixture, KMeans, SpectralClustering};
use multiclust::core::Clustering;
use multiclust::data::synthetic::{four_blob_square, planted_views, ViewSpec};
use multiclust::data::{seeded_rng, Dataset};
use multiclust::multiview::RandomProjectionEnsemble;
use multiclust::subspace::Proclus;

fn fixture() -> Dataset {
    four_blob_square(20, 10.0, 0.7, &mut seeded_rng(601)).dataset
}

#[test]
fn kmeans_and_gmm_are_seed_deterministic() {
    let data = fixture();
    let a = KMeans::new(3).with_restarts(3).fit(&data, &mut seeded_rng(9));
    let b = KMeans::new(3).with_restarts(3).fit(&data, &mut seeded_rng(9));
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.sse, b.sse);

    let g1 = GaussianMixture::new(2).fit(&data, &mut seeded_rng(10));
    let g2 = GaussianMixture::new(2).fit(&data, &mut seeded_rng(10));
    assert_eq!(g1.to_hard(), g2.to_hard());
    assert_eq!(g1.log_likelihood, g2.log_likelihood);
}

#[test]
fn paradigm_methods_are_seed_deterministic() {
    let data = fixture();
    let d1 = DecKMeans::new(&[2, 2]).with_lambda(5.0).fit(&data, &mut seeded_rng(11));
    let d2 = DecKMeans::new(&[2, 2]).with_lambda(5.0).fit(&data, &mut seeded_rng(11));
    assert_eq!(d1.clusterings, d2.clusterings);
    assert_eq!(d1.objective, d2.objective);

    let c1 = Cami::new(2, 2, 1.0).fit(&data, &mut seeded_rng(12));
    let c2 = Cami::new(2, 2, 1.0).fit(&data, &mut seeded_rng(12));
    assert_eq!(c1.clusterings, c2.clusterings);

    let given = Clustering::from_labels(&vec![0; data.len()]);
    let m1 = MinCEntropy::new(2, 1.0).fit(&data, &[&given], &mut seeded_rng(13));
    let m2 = MinCEntropy::new(2, 1.0).fit(&data, &[&given], &mut seeded_rng(13));
    assert_eq!(m1, m2);

    let p1 = Proclus::new(2, 2).fit(&data, &mut seeded_rng(14));
    let p2 = Proclus::new(2, 2).fit(&data, &mut seeded_rng(14));
    assert_eq!(p1.clustering, p2.clustering);

    let e1 = RandomProjectionEnsemble::new(4, 2, 2, 2).fit(&data, &mut seeded_rng(15));
    let e2 = RandomProjectionEnsemble::new(4, 2, 2, 2).fit(&data, &mut seeded_rng(15));
    assert_eq!(e1.consensus, e2.consensus);
}

#[test]
fn spectral_clustering_is_seed_deterministic() {
    let data = fixture();
    let s1 = SpectralClustering::new(2, 2.0).fit(&data, &mut seeded_rng(16));
    let s2 = SpectralClustering::new(2, 2.0).fit(&data, &mut seeded_rng(16));
    assert_eq!(s1, s2);
}

#[test]
fn generator_and_experiment_reports_are_stable() {
    // The reproduce harness is fully deterministic: repeated invocations
    // print identical reports (this is what makes EXPERIMENTS.md numbers
    // reproducible).
    let spec = ViewSpec { dims: 3, clusters: 2, separation: 8.0, noise: 1.0 };
    let p1 = planted_views(60, &[spec], 1, &mut seeded_rng(602));
    let p2 = planted_views(60, &[spec], 1, &mut seeded_rng(602));
    assert_eq!(p1.dataset, p2.dataset);
    assert_eq!(p1.truths, p2.truths);
}

#[test]
fn extension_methods_are_seed_deterministic() {
    use multiclust::alternative::hossain::Coupling;
    use multiclust::alternative::Hossain;
    use multiclust::multiview::MultiViewSpectral;
    use multiclust::subspace::{Doc, Msc};
    use multiclust::data::MultiViewDataset;

    let data = fixture();

    let h1 = Hossain::new(2, 2, Coupling::Disparate).fit(&data, &mut seeded_rng(18));
    let h2 = Hossain::new(2, 2, Coupling::Disparate).fit(&data, &mut seeded_rng(18));
    assert_eq!(h1.clusterings, h2.clusterings);

    let d1 = Doc::new(2.0, 0.1, 0.25).fit(&data, 2, &mut seeded_rng(19));
    let d2 = Doc::new(2.0, 0.1, 0.25).fit(&data, 2, &mut seeded_rng(19));
    assert_eq!(d1.0, d2.0);
    assert_eq!(d1.1, d2.1);

    let m1 = Msc::new(1, 2, 2).fit(&data, &mut seeded_rng(20));
    let m2 = Msc::new(1, 2, 2).fit(&data, &mut seeded_rng(20));
    assert_eq!(m1[0].dims, m2[0].dims);
    assert_eq!(m1[0].clustering, m2[0].clustering);

    let mv = MultiViewDataset::from_attribute_groups(&data, &[vec![0], vec![1]]);
    let s1 = MultiViewSpectral::new(2, vec![1.0, 1.0]).fit(&mv, &mut seeded_rng(21));
    let s2 = MultiViewSpectral::new(2, vec![1.0, 1.0]).fit(&mv, &mut seeded_rng(21));
    assert_eq!(s1, s2);
}

#[test]
fn csv_file_roundtrip_on_disk() {
    use multiclust::data::io::{read_csv, write_csv};
    let dir = std::env::temp_dir().join("multiclust-io-roundtrip");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("data.csv");
    let ds = fixture();
    write_csv(&ds, &path).expect("write");
    let back = read_csv(&path, false).expect("read");
    assert_eq!(ds.len(), back.len());
    assert_eq!(ds.dims(), back.dims());
    for (a, b) in ds.as_slice().iter().zip(back.as_slice()) {
        assert!((a - b).abs() < 1e-12);
    }
}
