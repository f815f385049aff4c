package tensor

// WholePlane exposes ConvGeom.wholePlane to plane_test.go, which builds
// the models and therefore lives in the external tensor_test package.
func WholePlane(g ConvGeom) bool { return g.wholePlane() }
