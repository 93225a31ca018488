/**
 * @file
 * 2D batch normalization. The Table I networks (Wide ResNet, ResNet-34,
 * FractalNet) all interleave their convolutions with batch norm; the
 * trainable substrate supports it so deeper reproductions of those
 * networks converge.
 */

#ifndef WINOMC_NN_BATCHNORM_HH
#define WINOMC_NN_BATCHNORM_HH

#include "nn/module.hh"

namespace winomc::nn {

/** Per-channel batch normalization with affine scale/shift. */
class BatchNorm2d : public Module
{
  public:
    explicit BatchNorm2d(int channels, float eps = 1e-5f,
                         float momentum = 0.1f);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &dy) override;
    void step(float lr) override;
    size_t paramCount() const override { return 2 * size_t(channels); }
    std::string name() const override { return "batchnorm2d"; }

    float runningMean(int c) const { return running_mean[size_t(c)]; }
    float runningVar(int c) const { return running_var[size_t(c)]; }
    float gamma(int c) const { return gamma_[size_t(c)]; }
    float beta(int c) const { return beta_[size_t(c)]; }
    /** Accumulated gradients since the last step(). */
    float gammaGrad(int c) const { return dgamma[size_t(c)]; }
    float betaGrad(int c) const { return dbeta[size_t(c)]; }

  private:
    int channels;
    float eps;
    float statMomentum;

    std::vector<float> gamma_, beta_;
    std::vector<float> dgamma, dbeta;
    std::vector<float> running_mean, running_var;

    // Cached training-forward state for backward.
    Tensor xhat;                   ///< normalized activations
    std::vector<float> batch_mean, batch_inv_std;
    bool haveGrad = false;
};

} // namespace winomc::nn

#endif // WINOMC_NN_BATCHNORM_HH
