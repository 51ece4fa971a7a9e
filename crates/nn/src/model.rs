//! Networks as shape-checked chains of layers.

use crate::layer::{LayerInstance, LayerKind, VolumeShape};
use crate::{ModelError, Result};
use albireo_tensor::output_extent;
use std::fmt;

/// A complete network: an input shape and an ordered list of bound layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    name: String,
    input: VolumeShape,
    layers: Vec<LayerInstance>,
}

impl Model {
    /// Starts building a model. See [`ModelBuilder`].
    pub fn builder(name: impl Into<String>, input: VolumeShape) -> ModelBuilder {
        ModelBuilder {
            name: name.into(),
            input,
            trunk: input,
            layers: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input volume shape.
    pub fn input_shape(&self) -> VolumeShape {
        self.input
    }

    /// All layers in order.
    pub fn layers(&self) -> &[LayerInstance] {
        &self.layers
    }

    /// Total multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerInstance::macs).sum()
    }

    /// Total operations per inference (2 ops per MAC, the convention used
    /// for the paper's GOPS numbers).
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs()
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(LayerInstance::params).sum()
    }

    /// Output shape of the final layer.
    ///
    /// # Panics
    ///
    /// Panics if the model has no layers.
    pub fn output_shape(&self) -> VolumeShape {
        self.layers
            .last()
            .expect("model has at least one layer")
            .output
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} layers, {:.2} GMACs, {:.1} M params)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9,
            self.total_params() as f64 / 1e6,
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

/// Incremental [`Model`] constructor that chains and validates shapes.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    input: VolumeShape,
    trunk: VolumeShape,
    layers: Vec<LayerInstance>,
}

impl ModelBuilder {
    /// Appends a trunk layer; its output becomes the next layer's input.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer's geometry is incompatible with the
    /// current trunk shape.
    pub fn push(&mut self, name: impl Into<String>, kind: LayerKind) -> Result<&mut ModelBuilder> {
        let name = name.into();
        let output = self.resolve(&name, &kind, self.trunk)?;
        self.layers.push(LayerInstance {
            name,
            kind,
            input: self.trunk,
            output,
            is_branch: false,
        });
        self.trunk = output;
        Ok(self)
    }

    /// Appends a *branch* layer (e.g. a ResNet projection shortcut): it
    /// reads the shape the trunk had `offset` trunk-layers ago, contributes
    /// its MACs, but does not advance the trunk shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer's geometry is incompatible with that
    /// input shape.
    pub fn push_branch(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        input: VolumeShape,
    ) -> Result<&mut ModelBuilder> {
        let name = name.into();
        let output = self.resolve(&name, &kind, input)?;
        self.layers.push(LayerInstance {
            name,
            kind,
            input,
            output,
            is_branch: true,
        });
        Ok(self)
    }

    /// Current trunk shape (useful for wiring branches).
    pub fn trunk_shape(&self) -> VolumeShape {
        self.trunk
    }

    /// Finishes the model.
    ///
    /// # Errors
    ///
    /// Returns an error if no layers were added.
    pub fn build(&self) -> Result<Model> {
        if self.layers.is_empty() {
            return Err(ModelError::ShapeChain {
                layer: self.name.clone(),
                reason: "model has no layers".into(),
            });
        }
        Ok(Model {
            name: self.name.clone(),
            input: self.input,
            layers: self.layers.clone(),
        })
    }

    fn resolve(&self, name: &str, kind: &LayerKind, input: VolumeShape) -> Result<VolumeShape> {
        let err = |reason: String| ModelError::ShapeChain {
            layer: name.to_string(),
            reason,
        };
        match *kind {
            LayerKind::Conv {
                kernels,
                kernel_y,
                kernel_x,
                stride,
                padding,
                groups,
            } => {
                if groups == 0 || !input.z.is_multiple_of(groups) || !kernels.is_multiple_of(groups)
                {
                    return Err(err(format!(
                        "groups {groups} incompatible with {} input channels / {kernels} kernels",
                        input.z
                    )));
                }
                if input.y + 2 * padding < kernel_y || input.x + 2 * padding < kernel_x {
                    return Err(err(format!(
                        "kernel {kernel_y}x{kernel_x} larger than padded input {input}"
                    )));
                }
                Ok(VolumeShape::new(
                    kernels,
                    output_extent(input.y, kernel_y, padding, stride),
                    output_extent(input.x, kernel_x, padding, stride),
                ))
            }
            LayerKind::Depthwise {
                kernel,
                stride,
                padding,
            } => {
                if input.y + 2 * padding < kernel || input.x + 2 * padding < kernel {
                    return Err(err(format!(
                        "kernel {kernel}x{kernel} larger than padded input {input}"
                    )));
                }
                Ok(VolumeShape::new(
                    input.z,
                    output_extent(input.y, kernel, padding, stride),
                    output_extent(input.x, kernel, padding, stride),
                ))
            }
            LayerKind::Pointwise { kernels } => Ok(VolumeShape::new(kernels, input.y, input.x)),
            LayerKind::FullyConnected { outputs } => Ok(VolumeShape::new(outputs, 1, 1)),
            LayerKind::MaxPool { window, stride } | LayerKind::AvgPool { window, stride } => {
                if input.y < window || input.x < window {
                    return Err(err(format!(
                        "pool window {window} larger than input {input}"
                    )));
                }
                Ok(VolumeShape::new(
                    input.z,
                    output_extent(input.y, window, 0, stride),
                    output_extent(input.x, window, 0, stride),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_shapes() {
        let mut b = Model::builder("tiny", VolumeShape::new(3, 8, 8));
        b.push("conv1", LayerKind::conv(16, 3, 1, 1)).unwrap();
        b.push(
            "pool1",
            LayerKind::MaxPool {
                window: 2,
                stride: 2,
            },
        )
        .unwrap();
        b.push("fc", LayerKind::FullyConnected { outputs: 10 })
            .unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.layers()[0].output, VolumeShape::new(16, 8, 8));
        assert_eq!(m.layers()[1].output, VolumeShape::new(16, 4, 4));
        assert_eq!(m.output_shape(), VolumeShape::new(10, 1, 1));
    }

    #[test]
    fn macs_accumulate() {
        let mut b = Model::builder("tiny", VolumeShape::new(1, 4, 4));
        b.push("conv", LayerKind::conv(2, 3, 1, 0)).unwrap();
        let m = b.build().unwrap();
        // 2×2 output, 2 kernels of 3×3×1 ⇒ 72 MACs, 144 ops.
        assert_eq!(m.total_macs(), 72);
        assert_eq!(m.total_ops(), 144);
    }

    #[test]
    fn branch_does_not_advance_trunk() {
        let mut b = Model::builder("res", VolumeShape::new(4, 8, 8));
        b.push("conv1", LayerKind::conv(8, 3, 2, 0)).unwrap();
        let before = b.trunk_shape();
        b.push_branch(
            "proj",
            LayerKind::conv(8, 1, 2, 0),
            VolumeShape::new(4, 8, 8),
        )
        .unwrap();
        assert_eq!(b.trunk_shape(), before);
        let m = b.build().unwrap();
        assert!(m.layers()[1].is_branch);
        assert!(m.layers()[1].macs() > 0);
    }

    #[test]
    fn incompatible_groups_rejected() {
        let mut b = Model::builder("bad", VolumeShape::new(3, 8, 8));
        let r = b.push("conv", LayerKind::conv_grouped(4, 3, 1, 1, 2));
        assert!(r.is_err());
    }

    #[test]
    fn oversized_kernel_rejected() {
        let mut b = Model::builder("bad", VolumeShape::new(3, 4, 4));
        assert!(b.push("conv", LayerKind::conv(4, 7, 1, 0)).is_err());
        assert!(b
            .push(
                "pool",
                LayerKind::MaxPool {
                    window: 5,
                    stride: 1
                }
            )
            .is_err());
    }

    #[test]
    fn empty_model_rejected() {
        let b = Model::builder("empty", VolumeShape::new(1, 1, 1));
        assert!(b.build().is_err());
    }

    #[test]
    fn display_lists_layers() {
        let mut b = Model::builder("tiny", VolumeShape::new(1, 4, 4));
        b.push("conv", LayerKind::conv(2, 3, 1, 0)).unwrap();
        let text = b.build().unwrap().to_string();
        assert!(text.contains("tiny"));
        assert!(text.contains("conv"));
    }
}
