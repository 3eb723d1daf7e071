package obs

import "io"

// WritePrometheus hands w the exposition in one Write: the body Handler
// serves, without the HTTP round trip.
func (r *Registry) WritePrometheus(w io.Writer) { w.Write(r.render()) }
