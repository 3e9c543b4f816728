/// \file synthetic.h
/// \brief Synthetic stand-ins for MNIST / Fashion-MNIST / CIFAR-10.
///
/// The environment is offline, so real dataset files may be absent. The
/// paper's phenomena — client drift under label-skewed partitions, the
/// benefit of dual variables, sensitivity to ρ and η — are properties of the
/// optimization landscape induced by the *partition*, not of natural-image
/// pixel statistics. This generator produces a 10-class image classification
/// task of controllable difficulty whose samples have the same shapes as the
/// real datasets:
///
///   * each class has a deterministic low-frequency prototype image
///     (coarse random grid, bilinearly upsampled — spatially correlated so
///     convolutions are the right inductive bias);
///   * a sample is `prototype + Gaussian pixel noise`, optionally shifted by
///     ±1 pixel (data augmentation-like jitter increasing difficulty).
///
/// README.md ("Synthetic stand-ins") gives the substitution rationale.

#ifndef FEDADMM_DATA_SYNTHETIC_H_
#define FEDADMM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace fedadmm {

/// \brief Configuration of the synthetic image task.
struct SyntheticSpec {
  int classes = 10;
  int channels = 1;
  int height = 28;
  int width = 28;
  /// Training samples per class.
  int train_per_class = 100;
  /// Test samples per class.
  int test_per_class = 20;
  /// Amplitude of the class prototype pattern.
  float signal = 1.0f;
  /// Stddev of additive pixel noise (higher = harder task).
  float noise_stddev = 0.8f;
  /// Coarse grid size for prototype generation (spatial correlation scale).
  int prototype_grid = 4;
  /// Random ±1 pixel translation of each sample.
  bool jitter = true;
  /// Master seed; the same spec always yields the same data.
  uint64_t seed = 1234;

  std::string ToString() const;
};

/// \brief MNIST-like spec (1x28x28) scaled to `per_class` samples.
SyntheticSpec SyntheticMnistSpec(int train_per_class = 100,
                                 int test_per_class = 20);

/// \brief Fashion-MNIST-like spec (1x28x28): noisier than MNIST, matching
/// the relative difficulty ordering of the real datasets.
SyntheticSpec SyntheticFmnistSpec(int train_per_class = 100,
                                  int test_per_class = 20);

/// \brief CIFAR-10-like spec (3x32x32): the hardest of the three.
SyntheticSpec SyntheticCifarSpec(int train_per_class = 100,
                                 int test_per_class = 20);

/// \brief Reduced-resolution spec used by the CPU bench harness.
SyntheticSpec SyntheticBenchSpec(int channels, int hw, int train_per_class,
                                 int test_per_class, float noise_stddev);

/// \brief Generates the train/test split deterministically from the spec.
DataSplit GenerateSynthetic(const SyntheticSpec& spec);

}  // namespace fedadmm

#endif  // FEDADMM_DATA_SYNTHETIC_H_
