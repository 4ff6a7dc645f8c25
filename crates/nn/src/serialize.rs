//! Saving and loading trained network parameters.
//!
//! The architecture itself is code (rebuild it with the same
//! [`LenetConfig`](crate::lenet::LenetConfig) or layer stack); only the
//! parameter tensors are persisted, in a small self-describing
//! little-endian binary format:
//!
//! ```text
//! magic "SCNN" | version u32 | tensor count u32
//! per tensor:  ndims u32 | dims u32×ndims | data f32×len
//! ```

use crate::{Error, Network, Tensor};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"SCNN";
const VERSION: u32 = 1;

fn ser_err(reason: impl Into<String>) -> Error {
    Error::InvalidDataset { reason: format!("parameter file: {}", reason.into()) }
}

/// Extracts every parameter tensor of the network, in visit order.
fn export_params(net: &mut Network) -> Vec<Tensor> {
    let mut params = Vec::new();
    net.visit_all_params(&mut |p, _| params.push(p.clone()));
    params
}

/// Loads parameter tensors back into an identically shaped network.
///
/// # Errors
///
/// Returns an error if the count or any shape differs from the network's
/// parameters — the architecture must match the one that was saved.
fn import_params(net: &mut Network, params: &[Tensor]) -> Result<(), Error> {
    // First pass: validate without mutating.
    let mut shapes = Vec::new();
    net.visit_all_params(&mut |p, _| shapes.push(p.shape().to_vec()));
    if shapes.len() != params.len() {
        return Err(ser_err(format!(
            "expected {} tensors, file holds {}",
            shapes.len(),
            params.len()
        )));
    }
    for (i, (shape, tensor)) in shapes.iter().zip(params).enumerate() {
        if shape != tensor.shape() {
            return Err(ser_err(format!(
                "tensor {i}: network shape {shape:?} vs file shape {:?}",
                tensor.shape()
            )));
        }
    }
    let mut idx = 0usize;
    net.visit_all_params(&mut |p, _| {
        p.data_mut().copy_from_slice(params[idx].data());
        idx += 1;
    });
    Ok(())
}

/// Writes the network's parameters to `writer`.
///
/// # Errors
///
/// Propagates I/O errors (as [`Error::InvalidDataset`] with context).
pub fn write_network<W: Write>(net: &mut Network, mut writer: W) -> Result<(), Error> {
    let params = export_params(net);
    let io = |e: std::io::Error| ser_err(e.to_string());
    writer.write_all(MAGIC).map_err(io)?;
    writer.write_all(&VERSION.to_le_bytes()).map_err(io)?;
    writer.write_all(&(params.len() as u32).to_le_bytes()).map_err(io)?;
    for p in &params {
        writer.write_all(&(p.shape().len() as u32).to_le_bytes()).map_err(io)?;
        for &d in p.shape() {
            writer.write_all(&(d as u32).to_le_bytes()).map_err(io)?;
        }
        for &v in p.data() {
            writer.write_all(&v.to_le_bytes()).map_err(io)?;
        }
    }
    Ok(())
}

/// Reads parameters from `reader` into an identically shaped network.
///
/// # Errors
///
/// Returns an error on I/O failures, a corrupt header, or an architecture
/// mismatch.
pub fn read_network_into<R: Read>(net: &mut Network, mut reader: R) -> Result<(), Error> {
    let io = |e: std::io::Error| ser_err(e.to_string());
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic).map_err(io)?;
    if &magic != MAGIC {
        return Err(ser_err("bad magic"));
    }
    let mut u32buf = [0u8; 4];
    reader.read_exact(&mut u32buf).map_err(io)?;
    let version = u32::from_le_bytes(u32buf);
    if version != VERSION {
        return Err(ser_err(format!("unsupported version {version}")));
    }
    reader.read_exact(&mut u32buf).map_err(io)?;
    let count = u32::from_le_bytes(u32buf) as usize;
    if count > 1_000_000 {
        return Err(ser_err(format!("implausible tensor count {count}")));
    }
    let mut params = Vec::with_capacity(count);
    for _ in 0..count {
        reader.read_exact(&mut u32buf).map_err(io)?;
        let ndims = u32::from_le_bytes(u32buf) as usize;
        if ndims > 8 {
            return Err(ser_err(format!("implausible rank {ndims}")));
        }
        let mut shape = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            reader.read_exact(&mut u32buf).map_err(io)?;
            shape.push(u32::from_le_bytes(u32buf) as usize);
        }
        let len: usize = shape.iter().product();
        if len > 256_000_000 {
            return Err(ser_err(format!("implausible tensor size {len}")));
        }
        let mut data = vec![0f32; len];
        for v in &mut data {
            reader.read_exact(&mut u32buf).map_err(io)?;
            *v = f32::from_le_bytes(u32buf);
        }
        params.push(Tensor::from_vec(data, &shape)?);
    }
    import_params(net, &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn small_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Dense::new(4, 8, seed));
        net.push(Relu::new());
        net.push(Dense::new(8, 3, seed ^ 1));
        net
    }

    #[test]
    fn round_trip_through_memory() {
        let mut a = small_net(1);
        let mut buffer = Vec::new();
        write_network(&mut a, &mut buffer).unwrap();
        let mut b = small_net(2); // different init
        read_network_into(&mut b, buffer.as_slice()).unwrap();
        // After loading, both networks compute identically.
        let x = Tensor::filled(&[2, 4], 0.3);
        let ya = a.forward(&x, false).unwrap();
        let yb = b.forward(&x, false).unwrap();
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = small_net(1);
        let mut buffer = Vec::new();
        write_network(&mut a, &mut buffer).unwrap();
        let mut wrong = Network::new();
        wrong.push(Dense::new(4, 9, 0));
        assert!(read_network_into(&mut wrong, buffer.as_slice()).is_err());
    }

    #[test]
    fn rejects_corruption() {
        let mut a = small_net(1);
        let mut buffer = Vec::new();
        write_network(&mut a, &mut buffer).unwrap();
        // Bad magic.
        let mut bad = buffer.clone();
        bad[0] = b'X';
        assert!(read_network_into(&mut small_net(1), bad.as_slice()).is_err());
        // Truncated payload.
        let truncated = &buffer[..buffer.len() - 3];
        assert!(read_network_into(&mut small_net(1), truncated).is_err());
        // Bad version.
        let mut bad = buffer.clone();
        bad[4] = 99;
        assert!(read_network_into(&mut small_net(1), bad.as_slice()).is_err());
    }

    #[test]
    fn export_import_params_direct() {
        let mut a = small_net(3);
        let params = export_params(&mut a);
        assert_eq!(params.len(), 4); // two dense layers × (w, b)
        let mut b = small_net(4);
        import_params(&mut b, &params).unwrap();
        assert_eq!(export_params(&mut b)[0].data(), params[0].data());
        assert!(import_params(&mut b, &params[..2]).is_err());
    }
}
